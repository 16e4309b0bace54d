"""The package surface and the benchmark's layer harness.

perfbench/tracing.py wraps connlab's module functions and the IntMatrix /
FieldMatrix product and mat-vec methods by name, so a refactor of src/ can
break the traced benchmark run without breaking any other test.  The smoke
test here installs that tracer in-process, runs two CLI commands under it
and checks that every per-layer metric BENCHMARK.json declares comes back.
"""

import ast
import importlib.util
import inspect
import json
from pathlib import Path
from types import ModuleType

import numpy as np

import connlab
import connlab.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in connlab.__all__ if not hasattr(connlab, name)]
    assert missing == []
    assert len(set(connlab.__all__)) == len(connlab.__all__)


def test_every_public_name_is_exported():
    # the converse: each public name that connlab binds, other than its
    # submodules, is in __all__, so `from connlab import *` serves it
    public = {
        name for name, value in vars(connlab).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(public - set(connlab.__all__)) == []


# ROADMAP item 9's standing rule: src/ holds at most this many lines, so
# that what the later items add is paid for by what leaves
SRC_LINE_BUDGET = 4264


def test_src_stays_within_its_line_budget():
    # the count of `wc -l src/connlab/*.py`
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "connlab").glob("*.py"))
    assert lines <= SRC_LINE_BUDGET


def _referenced_names(path: Path) -> set[str]:
    """Every name a module's code imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_elimination_inverses_stay_in_the_oracles():
    # L^-1 comes from the bundle's certified green everywhere, over F_p as
    # its reduction mod p; the elimination inverses over Z and over F_p live
    # in tests/oracles.py, so no module of the package defines, imports or
    # even names either
    package = ROOT / "src" / "connlab"
    sources = {p.stem: p.read_text() for p in package.glob("*.py")}
    for name in ("inverse_unimodular", "field_inverse"):
        assert [m for m, text in sources.items() if name in text] == [], name
    assert not hasattr(connlab, "field_inverse") and "field_inverse" not in connlab.__all__


def test_intmatrix_stores_only_its_compressed_rows():
    # the compressed rows are the one store of an IntMatrix's entries; the
    # (column, value) pair view and its conversions are gone from the
    # package, and the tests read pairs through oracles.pairs
    package = ROOT / "src" / "connlab"
    sources = {p.stem: p.read_text() for p in package.glob("*.py")}
    for name in ("nonzeros", "from_nonzeros", "_csr_from_pairs", "_pairs_from_csr"):
        assert [m for m, text in sources.items() if name in text] == [], name
    # csr is the store; the row of each entry, the step plan and max_abs are
    # caches derived from it
    exact = connlab.exact
    assert exact.IntMatrix.__slots__ == ("nrows", "ncols", "csr", "_rows", "_plan", "_largest")
    assert exact.FieldMatrix.__slots__ == ("p",)


def test_charpoly_stays_with_reciprocity_and_spectra():
    # reciprocity reads the Schur certificate, supersymmetry rests on factor
    # certificates and the Sturm validation of spectra is an oracle; the
    # multimodular charpoly lives in tests/oracles.py, so no module of the
    # package names it, its Graeffe step or its sign
    package = ROOT / "src" / "connlab"
    gone = {
        "charpoly", "graeffe", "reciprocal_sign", "IntPolynomial", "_charpoly_mod", "_coefficient_bound"
    }
    users = {p.stem: gone & _referenced_names(p) for p in package.glob("*.py")}
    assert {m: names for m, names in users.items() if names} == {}
    defined = {
        node.name
        for p in package.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert gone & defined == set()


def test_ranks_come_from_the_forest_certificate():
    # supersymmetry's ranks come from operators.forest_rank; the dense
    # multimodular rank, its elimination mod p and its prime search live in
    # tests/oracles.py, so no module of the package defines or names them,
    # and the only dense array the package scatters is to_float's
    package = ROOT / "src" / "connlab"
    gone = {"certified_rank", "_rank_mod", "_prime", "_PRIMES"}
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    named = {m: gone & _referenced_names(package / f"{m}.py") for m in trees}
    assert {m: names for m, names in named.items() if names} == {}
    defined = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert gone & defined == set()

    def uses(node: ast.AST) -> int:
        return sum(isinstance(n, ast.Attribute) and n.attr == "to_array" for n in ast.walk(node))

    counts = {m: uses(tree) for m, tree in trees.items()}
    assert {m: k for m, k in counts.items() if k} == {"exact": 1}
    to_float = [n for n in ast.walk(trees["exact"]) if getattr(n, "name", None) == "to_float"]
    assert [uses(n) for n in to_float] == [1]


_LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "sort", "reverse", "clear"}


def _root(node: ast.expr) -> ast.expr:
    """The expression that a chain of subscripts and list calls starts from."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _rows_writes(tree: ast.AST) -> list[int]:
    """Line numbers where a module writes into the dense rows of a matrix:
    an assignment to `.rows` or into `.rows[...]`, a list mutator called on
    them, or either done through a name bound to some `.rows`."""

    def is_rows(node: ast.expr, aliases: set[str]) -> bool:
        node = _root(node)
        return (isinstance(node, ast.Attribute) and node.attr == "rows") or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    lines = []
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for scope in [tree] + functions:
        # names bound to some `.rows` inside a function count there
        aliases = set() if scope is tree else {
            t.id
            for n in ast.walk(scope)
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Attribute) and n.value.attr == "rows"
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for n in ast.walk(scope):
            targets = []
            if isinstance(n, ast.Assign):
                targets = n.targets
            elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
                targets = [n.target]
            for t in targets:
                if (isinstance(t, ast.Attribute) and t.attr == "rows") or (
                    isinstance(t, ast.Subscript) and is_rows(t, aliases)
                ):
                    lines.append(n.lineno)
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in _LIST_MUTATORS
                and is_rows(n.func.value, aliases)
            ):
                lines.append(n.lineno)
    return sorted(set(lines))


def test_no_module_writes_into_dense_rows():
    # `rows` is a dense view built afresh on every read, and nothing reads
    # it back, so a write into it would be silently lost
    writes = {
        p.name: _rows_writes(ast.parse(p.read_text()))
        for p in sorted((ROOT / "src" / "connlab").glob("*.py"))
    }
    assert {name: lines for name, lines in writes.items() if lines} == {}
    # the check sees each kind of write
    probe = (
        "def f(m, k):\n"
        "    m.rows[0][1] = 2\n"
        "    m.rows[0][1] += k\n"
        "    rows = m.rows\n"
        "    rows[1] = []\n"
        "    m.rows = []\n"
        "    m.rows[2].append(k)\n"
        "    rows.sort()\n"
        "    return [r[:] for r in m.rows]\n"
    )
    assert _rows_writes(ast.parse(probe)) == [2, 3, 5, 6, 7, 8]


def _rows_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(function, line) of every read of an attribute named `rows`, with
    the innermost enclosing function ("" at module level)."""
    reads = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "rows" and isinstance(child.ctx, ast.Load):
                reads.append((function, child.lineno))
            visit(child, function)

    visit(tree, "")
    return reads


def test_only_det_and_dump_read_dense_rows():
    # every operator is read off its compressed rows; the dense rows are
    # left to Bareiss det, which eliminates them in place, and dump_matrix,
    # which prints them.  The Newton pattern is an IntMatrix like any
    # operator, so the dense SupportPattern mask is gone
    package = ROOT / "src" / "connlab"
    reads = {p.stem: _rows_reads(ast.parse(p.read_text())) for p in sorted(package.glob("*.py"))}
    found = {m: sorted({f for f, _ in r}) for m, r in reads.items() if r}
    assert found == {"exact": ["det", "dump_matrix"]}
    assert [p.stem for p in package.glob("*.py") if "SupportPattern" in p.read_text()] == []
    # the check sees a read in a function, a nested function and at module level
    probe = "def f(m):\n    def g():\n        return m.rows\n    return m.rows[0]\nx = y.rows\n"
    assert _rows_reads(ast.parse(probe)) == [("g", 3), ("f", 4), ("", 5)]


def test_the_dynamics_keep_one_state_type():
    # every walk, branch and automaton run is a Trajectory of orbit rows:
    # the per-time automaton states, the quadruple wrapper of the branch
    # data, the trajectory's provenance and its orbit constructor are gone,
    # and so is the signless product Hodge wrapper, so no module of the
    # package defines or names any of them
    package = ROOT / "src" / "connlab"
    gone = {"AutomatonState", "QuaternionField", "from_orbit", "provenance", "Vector", "product_hodge_signless"}
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    named = {m: gone & _referenced_names(package / f"{m}.py") for m in trees}
    assert {m: names for m, names in named.items() if names} == {}
    defined = {
        getattr(node, "name", None) or getattr(node, "arg", None)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.arg))
    }
    assert gone & defined == set()
    assert gone.isdisjoint(connlab.__all__) and not any(hasattr(connlab.dynamics, n) for n in gone)


# Top-level definitions that neither the CLI nor the script reaches, each
# kept for the reason given; everything they use is reached through them.
KEEP = {
    "__init__.__all__": "the public names, read by star imports and tools",
    "__init__.__version__": "the package version",
    "complexes.star": "St(x) of the star formula for g, which operators reads off incident_edges",
    "dynamics.quaternion_solution": "the four branch solutions of the Jacobi equation",
    "dynamics.perron_limits": "the Perron projection limits of the even-time walk",
    "dynamics.growth_rates": "the abstract's line-graph growth link, not yet certified",
    "graphs.save_graph": "writes the text format that load_graph reads",
    "products.two_time_walk": "the two-time walk on a product, the Z^2 lattice dynamics",
    "spectra.connection_sign_split": "the sign-split acceptance criterion reads it",
    "spectra.block_gap": "the block-gap acceptance criterion reads it",
    "tables.EVEN_CYCLE_PREFIX": "reference data of an acceptance criterion",
    "tables.EVEN_CYCLE_RANGE": "reference data of an acceptance criterion",
    "tables.BARY_STAR4_RHO": "reference data of an acceptance criterion",
    "tables.LINEAR3_DUAL_VERTEX": "reference data of an acceptance criterion",
    "tables.LINEAR3_BHS": "reference data of an acceptance criterion",
}


def _top_level(tree: ast.Module | ast.ClassDef) -> dict[str, ast.stmt]:
    """Each function, class and assigned name at a module's top level, or
    in a class's body."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return defs


def _package_imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """name -> (module, name) for every name a module imports from the
    package, anywhere in its code, relatively or absolutely."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("connlab.")):
            source = node.module if node.level else node.module.partition(".")[2]
            names.update({a.asname or a.name: (source, a.name) for a in node.names})
    return names


def _loaded(node: ast.AST) -> set[str]:
    """The names that code reads: a name only bound there, such as a
    dataclass field that shares a function's name, is not a use of it."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _reachable(roots: set[tuple[str, str]], defs: dict, imports: dict) -> set[tuple[str, str]]:
    """The (module, name) definitions reached from roots: a definition
    reaches every package definition its code reads, in its own module or
    through an import.  Attributes of a module imported whole are not
    followed: no module imports one, and what one reached that way would
    show as unreached."""

    def named(module: str, node: ast.AST) -> set[tuple[str, str]]:
        out = set()
        for name in _loaded(node):
            if name in defs[module]:
                out.add((module, name))
            elif name in imports[module]:
                out.add(imports[module][name])
        return out

    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        module, name = key
        if key not in seen and name in defs.get(module, {}):
            seen.add(key)
            todo.extend(named(module, defs[module][name]))
    return seen


def _reached(package: Path, script: Path, keep):
    """(defs, imports, the script's tree, the definitions reached from
    cli.main, every cmd_*, the script and keep) of a package."""
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    defs = {m: _top_level(t) for m, t in trees.items()}
    imports = {m: _package_imports(t) for m, t in trees.items()}
    script_tree = ast.parse(script.read_text())
    script_imports = _package_imports(script_tree)
    roots = {("cli", "main")} | {("cli", n) for n in defs["cli"] if n.startswith("cmd_")}
    roots |= {script_imports[name] for name in _loaded(script_tree) if name in script_imports}
    roots |= {tuple(k.split(".")) for k in keep}
    return defs, imports, script_tree, _reachable(roots, defs, imports)


def _unreached(package: Path, script: Path, keep) -> list[str]:
    defs, _, _, seen = _reached(package, script, keep)
    return sorted(f"{m}.{n}" for m, d in defs.items() for n in d if (m, n) not in seen)


def test_every_definition_is_reached_from_the_cli_the_script_or_keep():
    # a top-level definition of the package stays only when the CLI or
    # scripts/newton_perturbation_sweep.py reaches it, or KEEP names it with
    # its reason; test-only references belong in tests/oracles.py
    package, script = ROOT / "src" / "connlab", ROOT / "scripts" / "newton_perturbation_sweep.py"
    assert _unreached(package, script, KEEP) == []
    # no KEEP entry is stale: each is a definition that nothing else reaches
    unreached = set(_unreached(package, script, ()))
    assert set(KEEP) <= unreached
    # names in a module and imported ones are followed: exact.det is
    # reached only through the script, orbit through cli's import
    assert {"exact.det", "dynamics.orbit", "spectra.eig_sym", "cli.build_parser"}.isdisjoint(unreached)


def test_a_name_only_bound_reaches_nothing(tmp_path):
    # a dataclass field named like a module function binds that name but
    # never reads it, so the function is unreached unless some code calls it
    package = tmp_path / "package"
    package.mkdir()
    (package / "report.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "def total(xs):\n    return sum(xs)\n\n\n"
        "@dataclass\nclass Report:\n    total: int\n"
    )
    (package / "cli.py").write_text("from .report import Report\n\n\ndef main():\n    return Report(0)\n")
    script = tmp_path / "script.py"
    script.write_text("print(0)\n")
    assert _unreached(package, script, ()) == ["report.total"]
    (package / "cli.py").write_text(
        "from .report import Report, total\n\n\ndef main():\n    return Report(total([1]))\n"
    )
    assert _unreached(package, script, ()) == []


# Class members that no reached code reads, each kept for the reason given
KEEP_MEMBERS = {
    "exact.IntMatrix.apply": "perfbench/tracing.py wraps cls.__dict__['apply'] for the exact.apply metrics",
    "exact.FieldMatrix.apply": "perfbench/tracing.py wraps cls.__dict__['apply'] for the exact.apply metrics",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(cls: ast.ClassDef) -> dict[str, ast.stmt]:
    return {n.name: n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _members(cls: ast.ClassDef) -> set[str]:
    """The members a class defines, but the dunder ones that syntax calls:
    its methods and properties, the names its body assigns (dataclass
    fields among them) and the attributes its methods set on self.  An
    explicit __init__ is a member too: only a call of its class runs it."""
    names = set(_top_level(cls)) | {
        n.attr
        for n in ast.walk(cls)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    }
    return {name for name in names if not _dunder(name)} | ({"__init__"} & set(_methods(cls)))


def _attributes_read(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _constructed(node: ast.AST, owner: ast.ClassDef | None) -> set[str]:
    """The names of the classes whose __init__ code runs: each name it
    calls, plain or as an attribute, and owner's bases where a method of
    owner calls super().__init__."""
    names = set()
    for n in ast.walk(node):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if isinstance(f, (ast.Name, ast.Attribute)):
            names.add(f.id if isinstance(f, ast.Name) else f.attr)
        if (
            owner is not None and isinstance(f, ast.Attribute) and f.attr == "__init__"
            and isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "super"
        ):
            names |= {base.id for base in owner.bases if isinstance(base, ast.Name)}
    return names


def _unread_members(package: Path, script: Path, keep, keep_members) -> list[str]:
    """module.Class.member for each member of a reached class that no code
    run from cli.main, a cmd_*, the script or keep reads, and keep_members
    does not name.  A read is an attribute load of the member's name, on any
    object; a method or property runs only once its name is read, so what
    only unread members read is unread too (a fixed point).  The fields
    that a keep definition fills when it builds a class count as read: a
    kept definition is there for library callers, who read what it returns."""
    defs, imports, script_tree, seen = _reached(package, script, keep)
    classes = {(m, n): defs[m][n] for m, n in seen if isinstance(defs[m][n], ast.ClassDef)}
    members = {(m, c, name) for (m, c), cls in classes.items() for name in _members(cls)}
    # what runs without a member being read: the script, each reached
    # definition but a class, and a class's body but its non-dunder methods
    # and its __init__; each with the class it is code of
    todo = [(script_tree, None)] + [(defs[m][n], None) for m, n in seen if (m, n) not in classes]
    for cls in classes.values():
        todo += [(n, None) for n in cls.bases + cls.decorator_list]
        todo += [
            (n, cls) for n in cls.body
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) or (_dunder(n.name) and n.name != "__init__")
        ]
    # an __init__ runs where its class is called, and not where an
    # attribute named __init__ is read
    read: set[str] = set()
    called: set[str] = set()
    while todo:
        new = set().union(*(_attributes_read(n) for n, _ in todo)) - read - {"__init__"}
        new_called = set().union(*(_constructed(n, owner) for n, owner in todo)) - called
        read |= new
        called |= new_called
        todo = [
            (method, cls) for (_, c), cls in classes.items() for name, method in _methods(cls).items()
            if name in new or (name == "__init__" and c in new_called)
        ]
    filled = set()
    for m, n in (tuple(k.split(".")) for k in keep):
        built = {c.func.id for c in ast.walk(defs[m][n]) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        for name in built:
            key = (m, name) if name in defs[m] else imports[m].get(name)
            if key in classes:
                filled |= {
                    (*key, node.target.id) for node in classes[key].body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                }
    return sorted(
        f"{m}.{c}.{name}"
        for m, c, name in members
        if not (c in called if name == "__init__" else name in read)
        and (m, c, name) not in filled and f"{m}.{c}.{name}" not in keep_members
    )


def test_every_member_is_read_from_the_cli_the_script_or_keep():
    # item 9's rule one level down: a class member stays only when code run
    # from the CLI, scripts/newton_perturbation_sweep.py or KEEP reads it,
    # or KEEP_MEMBERS names it with its reason; what only tests read, they
    # read through the primitive behind it
    package, script = ROOT / "src" / "connlab", ROOT / "scripts" / "newton_perturbation_sweep.py"
    assert _unread_members(package, script, KEEP, KEEP_MEMBERS) == []
    # no KEEP_MEMBERS entry is stale
    assert set(KEEP_MEMBERS) <= set(_unread_members(package, script, KEEP, {}))


def test_a_member_only_a_test_reads_is_unread(tmp_path):
    package = tmp_path / "package"
    package.mkdir()
    (package / "shapes.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Box:\n    side: int\n    unit: str = 'm'\n\n"
        "    def area(self):\n        return self.side * self.side\n\n"
        "    def perimeter(self):\n        return 4 * self.side\n\n"
        "    def describe(self):\n        return f'{self.area()} {self.unit}'\n\n\n"
        "def unit_box():\n    return Box(1, 'cm')\n"
    )
    (package / "cli.py").write_text("from .shapes import Box\n\n\ndef main():\n    return Box(2).area()\n")
    script = tmp_path / "script.py"
    script.write_text("print(0)\n")
    # a test reads perimeter, but tests are not among the readers
    (tmp_path / "test_shapes.py").write_text("from package.shapes import Box\n\nassert Box(1).perimeter() == 4\n")
    # unit is read only by describe, which nothing reads
    assert _unread_members(package, script, (), {}) == [
        "shapes.Box.describe", "shapes.Box.perimeter", "shapes.Box.unit"
    ]
    assert _unread_members(package, script, (), {"shapes.Box.perimeter": "why"}) == [
        "shapes.Box.describe", "shapes.Box.unit"
    ]
    # a kept definition fills every field of the Box it returns
    assert _unread_members(package, script, {"shapes.unit_box"}, {}) == ["shapes.Box.describe", "shapes.Box.perimeter"]


def test_an_init_runs_only_where_its_class_is_called(tmp_path):
    # an explicit __init__ counts as read where reached code calls its
    # class, by name or through super().__init__ in an __init__ that runs;
    # an instance made by cls.__new__ or an attribute read of __init__
    # runs neither
    package = tmp_path / "package"
    package.mkdir()
    (package / "shapes.py").write_text(
        "class Base:\n"
        "    def __init__(self, side):\n        self.side = side\n\n"
        "    @classmethod\n    def unit(cls):\n"
        "        b = cls.__new__(cls)\n        b.side = 1\n        return b\n\n\n"
        "class Square(Base):\n"
        "    def __init__(self, side):\n        super().__init__(side)\n\n\n"
        "class Circle:\n"
        "    def __init__(self, r):\n        self.r = r\n"
    )
    script = tmp_path / "script.py"
    script.write_text("print(0)\n")
    main = "from .shapes import Circle, Square\n\n\ndef main():\n    return {}\n"
    (package / "cli.py").write_text(main.format("Square.unit().side, Circle(2).r, Square.__init__"))
    assert _unread_members(package, script, (), {}) == ["shapes.Base.__init__", "shapes.Square.__init__"]
    (package / "cli.py").write_text(main.format("Square.unit().side + Square(3).side, Circle(2).r"))
    assert _unread_members(package, script, (), {}) == []


def test_no_parameter_holds_a_value_no_caller_changes():
    # each parameter below took one value at every call in src/ and the
    # script: it is gone, or required where both values are needed, and a
    # union that no caller used both halves of is one type
    def parameters(f):
        return inspect.signature(f).parameters

    assert "seed" not in parameters(connlab.graphs.from_spec)
    assert "ks" not in parameters(connlab.spectra.bounds_report)
    assert "trials" not in parameters(cli._report_sparse_random)
    assert "signs" not in parameters(connlab.OperatorBundle)
    assert "signs" not in parameters(connlab.operators.incidence_signed)
    assert parameters(connlab.spectra.eig_sym)["m"].annotation == "IntMatrix"
    # Newton reads its pattern, its start and |H| off the bundle: L is the
    # pattern and the start, and the inverse-support pattern is L's and g's
    newton = [f for _, f in inspect.getmembers(connlab.newton, inspect.isfunction) if f.__module__ == "connlab.newton"]
    assert "exact_jacobian_at_connection" in {f.__name__ for f in newton}
    for f in newton:
        assert {"pattern", "inverse_pattern", "L0", "habs"}.isdisjoint(parameters(f)), f.__name__
    solve = parameters(connlab.newton.solve_hydrogen)
    assert solve["K"].annotation == "np.ndarray"
    assert solve["cfg"].default is inspect.Parameter.empty
    assert parameters(connlab.newton.verify_support)["X"].annotation == "np.ndarray"
    assert not hasattr(connlab.spectra, "_as_array") and not hasattr(connlab.newton, "_as_float")


_GRAPH_TYPES = {"Graph", "Complex", "OperatorBundle"}


def _graph_unions(text: str) -> list[str]:
    """function.parameter for each parameter annotated with a union, by |,
    Union or Optional, that names Graph, Complex or OperatorBundle."""
    found = []
    for f in ast.walk(ast.parse(text)):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for arg in ast.walk(f.args):
            note = getattr(arg, "annotation", None)
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                note = ast.parse(note.value, mode="eval").body
            if note is None:
                continue
            names = {n.id for n in ast.walk(note) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(note) if isinstance(n, ast.Attribute)}
            union = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitOr) for n in ast.walk(note))
            if (union or names & {"Union", "Optional"}) and names & _GRAPH_TYPES:
                found.append(f"{f.name}.{arg.arg}")
    return found


def test_no_parameter_takes_a_union_of_the_graph_types():
    # a routine that reads an operator takes the OperatorBundle and one that
    # reads only the graph takes the Graph; nothing takes either
    unions = {p.stem: _graph_unions(p.read_text()) for p in (ROOT / "src" / "connlab").glob("*.py")}
    assert {m: names for m, names in unions.items() if names} == {}
    # the check sees |, Union, Optional and a quoted annotation, and passes
    # a union of other types
    probe = (
        "def f(a: Graph | OperatorBundle, b: 'Complex | None', c: Union[Graph, int],\n"
        "      d: typing.Optional[OperatorBundle], e: int | None, g: Graph): pass\n"
    )
    assert _graph_unions(probe) == ["f.a", "f.b", "f.c", "f.d"]


def _unused_imports(text: str) -> list[str]:
    """The names a module imports and never reads; a name that its __all__
    lists is read by star imports."""
    tree = ast.parse(text)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    return sorted(imported - _loaded(tree) - exported)


def test_no_module_imports_a_name_it_never_reads():
    files = [p for d in ("src/connlab", "tests", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    unused = {str(p.relative_to(ROOT)): _unused_imports(p.read_text()) for p in files}
    assert {name: names for name, names in unused.items() if names} == {}
    # the check sees a plain, a dotted, an aliased and an exported import
    probe = "import os\nimport a.b\nfrom x import y as z, w\n__all__ = ['w']\nprint(a.b)\n"
    assert _unused_imports(probe) == ["os", "z"]


def test_each_job_has_one_entry_point():
    # the one-line wrappers around a routine that stays are gone: orbit is
    # the walk and the automaton, the hydrogen residual (reduced mod p over
    # F_p), connection_det and green.entry_sum are the identity checks, L is
    # the intersection pattern and bound_kwalk takes every k of a pass.  The
    # Schur certificate is reached through the bundle alone, whose schur,
    # schur_inverse() and reciprocity_sign replace the bare-matrix functions
    # and their block helpers.  No module of the package defines them and
    # the package exports none
    package = ROOT / "src" / "connlab"
    gone = {
        "walk", "automaton_run", "hydrogen_holds", "hydrogen_residual_mod", "hydrogen_holds_mod",
        "is_unimodular", "energy", "energy_holds", "incidence_signless", "intersection_pattern",
        "connection_edge_count", "_kwalk_bounds", "schur_inverse", "schur_reciprocity_sign",
        "_schur_blocks", "_block_inverse", "_reciprocity_sign",
    }
    defined = {m.stem: gone & set(_top_level(ast.parse(m.read_text()))) for m in package.glob("*.py")}
    assert {m: names for m, names in defined.items() if names} == {}
    assert gone.isdisjoint(connlab.__all__) and not any(hasattr(connlab, n) for n in gone)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_harness_reports_every_declared_metric(capsys):
    tracing = _load_tracing()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_sites() == []
        assert cli.main(["verify", "cycle:4", "--field", "5"]) == 0
        assert cli.main(["automaton", "cycle:4", "--field", "5", "--steps", "3", "--reverse"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics(2, 0)
    assert declared - {"trace_overhead_s"} <= set(metrics)
    # reciprocity reads the Schur certificate, supersymmetry the factor
    # certificates and hydrogen-mod-p the certified g mod p, so verify runs
    # no charpoly and no F_p elimination
    assert metrics["exact.charpoly.calls"][0] == 0
    assert metrics["exact.field_inverse.self_s"][0] == 0
    assert not hasattr(connlab.exact.FieldMatrix.apply, "__wrapped__")


def test_layer_harness_counts_the_walk_mat_vecs(capsys, monkeypatch):
    # the tracer wraps apply, which no walk calls.  Everything steps through
    # IntMatrix.step: the orbit one state of diag(L, g) per pair of times
    # psi(k), psi(-k), N steps; the round trip
    # g psi(k) for k = 1..N in blocks of (N + 1) n // nnz(g) states; and the
    # Jacobi residual |D| twice on each block of (2N + 1) n // nnz(|D|) of
    # the 2N - 1 states with a hydrogen defect
    tracing = _load_tracing()
    real = connlab.exact.IntMatrix.step
    for spec, steps, blocks, residual_blocks in (("cycle:4", 3, 3, 2), ("cycle:12", 20, 4, 2)):
        shapes = []  # the number of axes of each stepped state or block

        def counted(self, vec):
            shapes.append(np.ndim(vec))
            return real(self, vec)

        monkeypatch.setattr(connlab.exact.IntMatrix, "step", counted)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main(["walk", spec, "--steps", str(steps), "--reverse"]) == 0
        finally:
            tracer.uninstall()
            monkeypatch.undo()
        capsys.readouterr()
        assert tracer.layer_metrics(1, 0)["exact.apply.calls"][0] == 0
        bundle = connlab.bundle_for(connlab.from_spec(spec))
        block = max(1, (steps + 1) * bundle.size // bundle.green.nnz)
        residual_block = max(1, (2 * steps + 1) * bundle.size // bundle.dirac_signless.nnz)
        assert shapes.count(1) == steps
        assert shapes.count(2) == blocks + 2 * residual_blocks
        assert blocks == -(-steps // block)
        assert residual_blocks == -(-(2 * steps - 1) // residual_block)


def test_layer_harness_times_the_kwalk_bound(capsys):
    # bounds_report takes every k of a row from one bound_kwalk call, which
    # the tracer wraps by name: one span per graph, with time of its own
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["bounds", "cycle:6", "grid:3,4"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    kwalk = tracer.per_name()["spectra.bound_kwalk"]
    assert kwalk["calls"] == 2 and kwalk["self_s"] > 0
