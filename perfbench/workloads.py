"""Seeded operation lists for the four workloads.

Every list is built from a fixed slot schedule: each slot names a command, a
graph family and a target cell count (cells = vertices + edges), and the seed
only picks the concrete graph inside the slot (random-family instances, ties
between equally sized family members, field primes, step counts, Newton
perturbation seeds).  The operations run in schedule order.  So every seed
gives a different operation list with nearly the same cost, and the
run-to-run spread of the end-to-end numbers stays small.

The schedule is cut when the sum of the slots' nominal costs (seconds at the
worker's reference speed, fitted on a 2-core Xeon VM) reaches FILL times the
requested run length.  The cut depends only on --seconds, never on measured
time, so the same (seed, seconds) always gives the same list.

No (command, graph) pair repeats within a run, warm-up operations included:
connlab is a CLI whose users pay a fresh process per call, so a repeated pair
would let an in-process cache show a gain no user sees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("verify-small", "certify-ladder", "bounds-table", "dynamics")

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)

# The warm-up stream draws from its own seed, disjoint from the timed one.
WARMUP_SALT = 7_919


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation or one library certification."""

    command: str  # CLI subcommand, or "certify" for the library path
    argv: tuple[str, ...]  # passed to connlab.cli.main; ("certify", spec) for certify
    graphs: tuple[str, ...]  # graph specs the operation names
    nominal_s: float
    field: int | None = None  # prime of an automaton or verify --field
    steps: int | None = None  # walk / automaton step count

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.command, self.graphs)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# graph families: (spec, cells) for deterministic members, generators for
# random ones


def _cells(v: int, e: int) -> int:
    return v + e


def _bary(v: int, e: int) -> tuple[int, int]:
    return v + e, 2 * e


def _members(family: str, max_cells: int) -> list[tuple[str, int]]:
    """Deterministic family members with at most max_cells cells."""
    out: list[tuple[str, int]] = []

    def add(spec: str, v: int, e: int) -> None:
        if _cells(v, e) <= max_cells:
            out.append((spec, _cells(v, e)))

    if family == "cycle":
        for n in range(3, max_cells // 2 + 1):
            add(f"cycle:{n}", n, n)
    elif family == "path":
        for n in range(2, max_cells // 2 + 2):
            add(f"path:{n}", n, n - 1)
    elif family == "star":
        for d in range(2, max_cells // 2 + 1):
            add(f"star:{d}", d + 1, d)
    elif family == "wheel":
        for d in range(3, max_cells // 3 + 1):
            add(f"wheel:{d}", d + 1, 2 * d)
    elif family == "complete":
        for n in range(3, 40):
            add(f"complete:{n}", n, n * (n - 1) // 2)
    elif family == "complete_bipartite":
        for a in range(2, 12):
            for b in range(a, 30):
                add(f"complete_bipartite:{a},{b}", a + b, a * b)
    elif family == "grid":
        for a in range(2, 30):
            for b in range(a, min(2 * a, 30) + 1):
                for r, c in {(a, b), (b, a)}:
                    add(f"grid:{r},{c}", r * c, 2 * r * c - r - c)
    elif family == "petersen":
        for m in range(5, max_cells // 5 + 1):
            for k in range(1, (m - 1) // 2 + 1):
                add(f"petersen:{m},{k}", 2 * m, 3 * m)
    elif family == "figure8":
        v, e, spec = 7, 8, "figure8"
        while _cells(v, e) <= max_cells:
            add(spec, v, e)
            v, e = _bary(v, e)
            spec = "bary:" + spec
    elif family == "bary":
        for inner in ("cycle", "star", "path", "wheel"):
            for spec, _ in _members(inner, max_cells):
                g = _shape(spec)
                add("bary:" + spec, *_bary(*g))
    elif family == "bary_grid":
        for spec, _ in _members("grid", max_cells):
            add("bary:" + spec, *_bary(*_shape(spec)))
    else:
        raise ValueError(f"no deterministic members for {family!r}")
    return out


def _shape(spec: str) -> tuple[int, int]:
    """(vertices, edges) of a deterministic family spec, without building it."""
    family, _, params = spec.partition(":")
    nums = [int(x) for x in params.split(",")] if params else []
    if family == "cycle":
        return nums[0], nums[0]
    if family == "path":
        return nums[0], nums[0] - 1
    if family == "star":
        return nums[0] + 1, nums[0]
    if family == "wheel":
        return nums[0] + 1, 2 * nums[0]
    if family == "complete":
        return nums[0], nums[0] * (nums[0] - 1) // 2
    if family == "grid":
        r, c = nums
        return r * c, 2 * r * c - r - c
    raise ValueError(f"unknown shape for {spec!r}")


def _nearest_unused(
    candidates: list[tuple[str, int]],
    target: int,
    command: str,
    used: set,
    rng: random.Random,
    spread: float = 0.25,
) -> tuple[str, ...] | None:
    """The unused member closest to target cells, within spread * target.

    Ties (such as grid:3,4 and grid:4,3) are broken by the seed.  None when
    the family has no unused member that close.
    """
    near = [c for c in candidates if abs(c[1] - target) <= max(3, target * spread)]
    for spec, _ in sorted(near, key=lambda c: (abs(c[1] - target), rng.random())):
        if (command, (spec,)) not in used:
            return (spec,)
    return None


def _gnm(target: int, vertex_share: float, command: str, used: set, rng: random.Random) -> str:
    n = max(4, round(target * vertex_share))
    m = min(target - n, n * (n - 1) // 2)
    while True:
        spec = f"gnm:{n},{m}:seed={rng.randrange(10**6)}"
        if (command, (spec,)) not in used:
            return spec


def _gnp(target: int, command: str, used: set, rng: random.Random) -> str:
    """A gnp member with exactly target cells: seeds are drawn until the
    edge count matches, so the random family keeps the slot's size."""
    from connlab.graphs import from_spec

    n = max(4, round(target * 0.45))
    m = target - n
    p = m / (n * (n - 1) / 2)
    while True:
        spec = f"gnp:{n},{p:.4f}:seed={rng.randrange(10**6)}"
        if (command, (spec,)) not in used and from_spec(spec).e == m:
            return spec


# ---------------------------------------------------------------------------
# nominal costs: seconds per operation at the worker's reference speed,
# fitted on the 2-core Xeon VM the benchmark was built on

# Share of --seconds the timed list fills; the rest of a run goes to set-up
# probes, warm-up, the speed reference and the checks between operations.
FILL = 0.8


def _verify_cost(cells: int) -> float:
    return 0.01 + 2.0e-7 * cells**4


def _product_cost(cells: int) -> float:
    return 0.007 + 1.75e-7 * cells**4


def _certify_cost(cells: int) -> float:
    return 0.43 * (cells / 133) ** 3


# ---------------------------------------------------------------------------
# verify-small

VERIFY_FAMILIES = (
    "cycle", "path", "star", "wheel", "complete", "complete_bipartite",
    "grid", "petersen", "figure8", "bary", "gnm", "gnp",
)
# The k-th verify slot takes family k mod 12 and size VERIFY_SIZES[7k mod 36]:
# every family meets small, middle and large sizes, and the sizes of a run
# step by one cell.  verify costs grow like cells^4, so coarser steps left the
# median and tail latencies on a 25 % jump between neighbouring sizes, which
# run-to-run noise could put on either side.
VERIFY_SIZES = tuple(range(12, 48))
PRODUCT_TARGETS = (21, 30, 40)
PRODUCT_FACTORS = ("cycle", "path", "star", "complete", "wheel")


def _product_pairs(target: int, spread: int = 0) -> list[tuple[str, str]]:
    """Ordered factor pairs whose product has target cells, within spread."""
    small = [m for fam in PRODUCT_FACTORS for m in _members(fam, 14)]
    return [
        (a, b)
        for (a, ca), (b, cb) in ((x, y) for x in small for y in small)
        if abs(ca * cb - target) <= spread
    ]


def verify_small(seed: int, seconds: float, used: set) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    budget = 0.0
    k = 0
    while budget < seconds * FILL:
        family = VERIFY_FAMILIES[k % len(VERIFY_FAMILIES)]
        target = VERIFY_SIZES[7 * k % len(VERIFY_SIZES)]
        if family == "gnm":
            graphs = (_gnm(target, 0.4, "verify", used, rng),)
        elif family == "gnp":
            graphs = (_gnp(target, "verify", used, rng),)
        else:
            graphs = _nearest_unused(_members(family, 80), target, "verify", used, rng)
            graphs = graphs or (_gnm(target, 0.4, "verify", used, rng),)
        argv = ["verify", "--format", "json", graphs[0]]
        field = None
        if k % 3 == 0:
            field = rng.choice(PRIMES)
            argv += ["--field", str(field)]
        ops.append(Op("verify", tuple(argv), graphs, _verify_cost(target), field=field))
        if k % 4 == 3:
            target = PRODUCT_TARGETS[k // 4 % len(PRODUCT_TARGETS)]
            pairs = [p for p in _product_pairs(target) if ("product", p) not in used]
            # long runs use up the exact sizes and widen to products within 10 %
            pairs = pairs or [p for p in _product_pairs(target, target // 10) if ("product", p) not in used]
            if pairs:
                graphs = pairs[rng.randrange(len(pairs))]
                ops.append(Op("product", ("product",) + graphs, graphs, _product_cost(target)))
        used.update(op.key for op in ops[-2:])
        budget = sum(op.nominal_s for op in ops)
        k += 1
    return ops


# ---------------------------------------------------------------------------
# certify-ladder

# Steps of 4 cells keep neighbouring costs (cubic in cells) about 10 % apart.
CERTIFY_TARGETS = tuple(range(70, 170, 4))
CERTIFY_FAMILIES = ("grid", "bary_grid", "gnm")


def certify_ladder(seed: int, seconds: float, used: set) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    budget = 0.0
    block = 0
    while budget < seconds * FILL:
        for i, target in enumerate(CERTIFY_TARGETS):
            family = CERTIFY_FAMILIES[(i + block) % len(CERTIFY_FAMILIES)]
            if family == "gnm":
                graphs = (_gnm(target, 0.3, "certify", used, rng),)
            else:
                graphs = _nearest_unused(_members(family, 320), target, "certify", used, rng)
                graphs = graphs or (_gnm(target, 0.3, "certify", used, rng),)
            ops.append(Op("certify", ("certify",) + graphs, graphs, _certify_cost(target)))
            used.add(ops[-1].key)
            budget += ops[-1].nominal_s
        block += 1
    return ops


# ---------------------------------------------------------------------------
# bounds-table

# Seeded analogues of the random-family tables: (spec, edge count to keep,
# nominal seconds).  gnp members are redrawn until they have the expected
# 19 edges, so every seed carries the same work.  gnm:30,100 appears three
# times per block: random operations stay fewer than the 55 reference rows,
# so the median latency falls inside the dense run of small reference rows,
# and the slowest dozen operations are all alike, so the tail percentile
# does not fall on the edge between two cost levels.  The refined
# family is bary:gnm:12,30 (102 cells) rather than the report's
# bary:gnm:20,100: at 320 cells one bounds call takes about 14 s.
BOUNDS_RANDOM = (
    ("gnm:20,50", 50, 0.18),
    ("gnm:30,100", 100, 1.0),
    ("gnm:30,100", 100, 1.0),
    ("gnm:30,100", 100, 1.0),
    ("gnp:20,0.1", 19, 0.04),
    ("bary:gnm:12,30", 60, 0.46),
)
BOUNDS_REFERENCE_S = 3.2


def bounds_table(seed: int, seconds: float, used: set) -> list[Op]:
    from connlab.graphs import from_spec
    from connlab.tables import REFERENCE_TABLES

    rng = random.Random(seed)
    ops = [
        Op("bounds", ("bounds", "--format", "csv", spec), (spec,), BOUNDS_REFERENCE_S / 55)
        for table in REFERENCE_TABLES.values()
        for spec, _ in table
    ]
    used.update(op.key for op in ops)
    budget = BOUNDS_REFERENCE_S
    while budget < seconds * FILL:
        for base, edges, cost in BOUNDS_RANDOM:
            while True:
                spec = f"{base}:seed={rng.randrange(10**6)}"
                if ("bounds", (spec,)) not in used and from_spec(spec).e == edges:
                    break
            ops.append(Op("bounds", ("bounds", "--format", "csv", spec), (spec,), cost))
            used.add(ops[-1].key)
            budget += cost
    return ops


# ---------------------------------------------------------------------------
# dynamics

# (command, family, target cells, steps, nominal seconds)
DYNAMICS_SLOTS = (
    ("walk", "cycle", 24, 300, 0.13),
    ("walk", "grid", 40, 150, 0.2),
    ("walk", "wheel", 60, 100, 0.34),
    ("automaton", "star", 24, 1000, 0.27),
    ("automaton", "petersen", 40, 800, 0.37),
    ("automaton", "gnm", 60, 600, 0.48),
    ("newton", "path", 30, None, 0.1),
    ("newton", "star", 26, None, 0.2),
    ("newton", "cycle_like", 30, None, 0.02),
)
# The masked Newton solve converges on paths and stars and aborts with a
# singular Jacobian on cycles, their refinements and the figure-8.  Other
# graphs do not follow that split (grids, wheels and bary:figure8 converge;
# the tree bary:star:4 is reported singular and some refined trees stall), so Newton
# operations draw only from these two pools, where the oracle's expectation
# holds for every perturbation seed tried.
NEWTON_POOLS = {
    "path": [m for m in _members("path", 45) if m[1] >= 15],
    "star": [m for m in _members("star", 45) if m[1] >= 15],
    "cycle_like": (
        [m for m in _members("cycle", 44) if m[1] >= 16]
        + [m for m in _members("bary", 44) if m[0].startswith("bary:cycle:")]
        + _members("figure8", 20)
    ),
}


def dynamics(seed: int, seconds: float, used: set) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    budget = 0.0
    while budget < seconds * FILL:
        for command, family, target, steps, cost in DYNAMICS_SLOTS:
            if command == "newton":
                graphs = _nearest_unused(NEWTON_POOLS[family], target, command, used, rng, spread=1.0)
                if graphs is None:  # pool used up: long runs carry fewer Newton solves
                    continue
                argv = ("newton", graphs[0], "--eps", "0.01", "--seed", str(rng.randrange(10**6)))
                op = Op(command, argv, graphs, cost)
            else:
                if family == "gnm":
                    graphs = (_gnm(target, 0.4, command, used, rng),)
                else:
                    graphs = _nearest_unused(_members(family, 80), target, command, used, rng)
                    graphs = graphs or (_gnm(target, 0.4, command, used, rng),)
                n = steps + rng.randrange(-steps // 20, steps // 20 + 1)
                if command == "walk":
                    argv = ("walk", graphs[0], "--steps", str(n), "--reverse")
                    op = Op(command, argv, graphs, cost, steps=n)
                else:
                    p = rng.choice(PRIMES)
                    argv = ("automaton", graphs[0], "--field", str(p), "--steps", str(n), "--reverse")
                    op = Op(command, argv, graphs, cost, field=p, steps=n)
            ops.append(op)
            used.add(op.key)
            budget += cost
    return ops


# ---------------------------------------------------------------------------
# warm-up: one small operation per command the workload runs

WARMUP = {
    "verify-small": lambda rng: [
        Op("verify", ("verify", "--format", "json", "cycle:4", "--field", "5"), ("cycle:4",), 0.0),
        Op("product", ("product", "path:2", "cycle:3"), ("path:2", "cycle:3"), 0.0),
    ],
    "certify-ladder": lambda rng: [
        Op("certify", ("certify", "grid:3,3"), ("grid:3,3",), 0.0),
    ],
    "bounds-table": lambda rng: [
        Op("bounds", ("bounds", "--format", "csv", spec), (spec,), 0.0)
        for spec in (f"gnm:10,20:seed={rng.randrange(10**6)}",)
    ],
    "dynamics": lambda rng: [
        Op("walk", ("walk", "path:3", "--steps", "5", "--reverse"), ("path:3",), 0.0, steps=5),
        Op("automaton", ("automaton", "path:3", "--field", "3", "--steps", "5", "--reverse"),
           ("path:3",), 0.0, field=3, steps=5),
        Op("newton", ("newton", "path:3", "--eps", "0.01", "--seed", str(rng.randrange(10**6))),
           ("path:3",), 0.0),
    ],
}

BUILDERS = {
    "verify-small": verify_small,
    "certify-ladder": certify_ladder,
    "bounds-table": bounds_table,
    "dynamics": dynamics,
}


def build(workload: str, seed: int, seconds: float) -> tuple[list[Op], list[Op]]:
    """(warm-up operations, timed operations) for one run."""
    warmup = WARMUP[workload](random.Random(seed * WARMUP_SALT + 1))
    used = {op.key for op in warmup}
    timed = BUILDERS[workload](seed, seconds, used)
    keys = [op.key for op in warmup + timed]
    if len(set(keys)) != len(keys):
        raise RuntimeError("an operation list repeats a (command, graph) pair")
    return warmup, timed
