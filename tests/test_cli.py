"""Command-line behavior: exit codes, output formats, determinism."""

import argparse
import ast
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import connlab.cli as cli
import connlab.dynamics as dynamics
import connlab.exact as exact
import connlab.operators as operators
import connlab.products as products
import connlab.spectra as spectra
from connlab.exact import dump_matrix, linear_combination
from connlab.graphs import GraphError, from_spec
from connlab.spectra import CSV_COLUMNS
from connlab.tables import REFERENCE_TABLES
from oracles import (
    broken_colouring,
    dense_matmul,
    edited,
    from_rows,
    jacobi_residual_two_apply,
    negated_edge_row,
    reference_parser,
    resigned_odd_rows,
    stray_forest_entry,
    stray_vertex_entry,
    zeroed_forest_pivot,
)
from test_graphs import _specs

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_passes_on_cycle(capsys):
    code, out, err = run(capsys, "verify", "cycle:4", "--field", "5")
    assert code == 0
    assert "8/8 checks pass" in out


def test_verify_figure8(capsys):
    code, out, _ = run(capsys, "verify", "figure8")
    assert code == 0
    assert "7/7 checks pass" in out


@pytest.mark.parametrize("edge_diagonal, why", [(0, "det L = 2"), (2, "det L = 0")])
def test_verify_green_star_fails_without_traceback_on_a_non_unimodular_l(
    capsys, monkeypatch, edge_diagonal, why
):
    # certify g first, then change one edge-edge diagonal entry of L: the
    # Schur complement entry -1 becomes -2 or 0, so L has no integer inverse
    b = operators.bundle_for(from_spec("cycle:4"))
    b.green
    b.__dict__["connection"] = edited(b.connection, {(b.v, b.v): edge_diagonal})
    monkeypatch.setattr(cli, "bundle_for", lambda g: b)
    code, out, err = run(capsys, "verify", "cycle:4")
    assert code == 1, why
    assert "FAIL green-star" in out
    assert "Traceback" not in err


def test_verify_fails_reciprocity_without_traceback_when_s_is_plus_identity(
    capsys, monkeypatch
):
    # every edge diagonal of L set to 3 gives S = +I_e: det L is still 1 and
    # spec(L^2) still closed under inversion, but the Schur certificate asks
    # for S = -I_e, so reciprocity fails with no sign
    b = operators.bundle_for(from_spec("cycle:4"))
    b.green
    b.__dict__["connection"] = edited(b.connection, {(k, k): 3 for k in range(b.v, b.size)})
    monkeypatch.setattr(cli, "bundle_for", lambda g: b)
    code, out, err = run(capsys, "verify", "cycle:4")
    assert code == 1
    assert "ok   unimodularity" in out
    assert f"FAIL {'reciprocity':16s} charpoly(L^2) reciprocal with sign None" in out.splitlines()
    assert "Traceback" not in err


@pytest.mark.parametrize("field", [(), ("--field", "7")], ids=["plain", "field"])
def test_verify_fails_without_traceback_when_the_schur_complement_is_not_diagonal(
    capsys, monkeypatch, field
):
    # a symmetric 1 between the disjoint edges (0, 1) and (2, 3) of cycle:5
    # puts an off-diagonal entry into S = C - U^T U, so neither det L nor
    # the Schur inverse can be read off S; mod 7 this L is singular too
    b = operators.bundle_for(from_spec("cycle:5"))
    b.green
    assert b.graph.edges[0] == (0, 1) and b.graph.edges[3] == (2, 3)
    b.__dict__["connection"] = edited(b.connection, {(5, 8): 1, (8, 5): 1})
    monkeypatch.setattr(cli, "bundle_for", lambda g: b)
    code, out, err = run(capsys, "verify", "cycle:5", *field)
    assert code == 1
    lines = out.splitlines()
    assert (
        f"FAIL {'unimodularity':16s} no Schur det: Schur complement of the vertex block is not diagonal"
        in lines
    )
    assert f"FAIL {'green-star':16s} star formula matches the elimination inverse entrywise" in lines
    assert (f"FAIL {'hydrogen-mod-p':16s} L - L^-1 = |H| over F_7" in lines) == bool(field)
    assert err == "first failing check: unimodularity\n"


def _serve_edited(monkeypatch, spec: str, operator: str, bump: tuple[int, int], by: int = 1):
    """The bundle of spec, served to the CLI, with one entry of the named
    cached operator raised by `by` after g is certified."""
    b = operators.bundle_for(from_spec(spec))
    b.green
    i, j = bump
    m = getattr(b, operator)
    b.__dict__[operator] = edited(m, {(i, j): m.rows[i][j] + by})
    monkeypatch.setattr(cli, "bundle_for", lambda g: b)
    return b


_REVERSE_RUNS = {
    "walk": ("walk", "cycle:5", "--steps", "4", "--reverse"),
    "automaton": ("automaton", "cycle:5", "--field", "7", "--steps", "4", "--reverse"),
}
_GREEN_EDITS = [
    (name, entry) for entry in [(0, 0), (0, 9), (3, 7), (6, 1), (9, 9)] for name in _REVERSE_RUNS
]


@pytest.mark.parametrize(
    "argv, entry",
    [(_REVERSE_RUNS[name], entry) for name, entry in _GREEN_EDITS],
    ids=[name if entry == (0, 0) else f"{name}-{entry[0]},{entry[1]}" for name, entry in _GREEN_EDITS],
)
def test_reverse_round_trip_fails_on_a_changed_green(capsys, monkeypatch, argv, entry):
    _serve_edited(monkeypatch, "cycle:5", "green", entry)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "round trip failed\n")
    assert len(out.splitlines()) == 9


def test_automaton_round_trip_checks_every_step(capsys, monkeypatch):
    # on path:3 mod 2, g with entry (1, 4) raised by 1 still carries psi(4)
    # back to psi(0) in 4 steps, but not each psi(k) to psi(k - 1)
    b = _serve_edited(monkeypatch, "path:3", "green", (1, 4))
    Lp, gp = exact.field_reduce(b.connection, 2), exact.field_reduce(b.green, 2)
    forward = [(1, 0, 0, 0, 0)]
    for _ in range(4):
        forward.append(Lp.apply(forward[-1]))
    state = forward[-1]
    for _ in range(4):
        state = gp.apply(state)
    assert state == forward[0]
    assert any(gp.apply(forward[k]) != forward[k - 1] for k in range(1, 5))
    code, out, err = run(capsys, "automaton", "path:3", "--field", "2", "--steps", "4", "--reverse")
    assert (code, err) == (1, "round trip failed\n")
    assert len(out.splitlines()) == 9


@pytest.mark.parametrize("p", [None, 11], ids=["Z", "F_11"])
def test_round_trip_check_finds_any_changed_state(p):
    # petersen:5,2 over 9 steps goes through g in blocks of 2 states, over
    # Z and mod 11, so a changed state is caught inside a block as well as
    # at its edges, and at either end of the orbit
    b = operators.bundle_for(from_spec("petersen:5,2"))
    green = b.green if p is None else exact.field_reduce(b.green, p)
    forward = dynamics.orbit(b, (1,) + (0,) * 24, 0, 9, p).states
    assert cli._steps_back(green, forward)
    for k in range(10):
        changed = forward.copy()
        changed[k, 3] = changed[k, 3] + 1 if p is None else (changed[k, 3] + 1) % p
        assert not cli._steps_back(green, changed), k


def test_walk_round_trip_checks_every_step(capsys, monkeypatch):
    # a cycle:5 walk with psi(2) changed in one entry: marching psi(4) back
    # to psi(0) never reads psi(2), and the Jacobi residual would fail only
    # after the round trip; g psi(3) = psi(2) fails at once
    def changed_orbit(source, start, n_min, n_max, p=None):
        t = dynamics.orbit(source, start, n_min, n_max, p)
        t.states[2 - n_min, 0] += 1
        return t

    monkeypatch.setattr(cli, "orbit", changed_orbit)
    b = operators.bundle_for(from_spec("cycle:5"))
    t = changed_orbit(b, (1,) + (0,) * (b.size - 1), -4, 4)
    state = t[4]
    for _ in range(4):
        state = b.green.apply(state)
    assert state == t[0]
    assert dynamics.jacobi_residual(t, b.dirac_signless) != 0
    code, out, err = run(capsys, "walk", "cycle:5", "--steps", "4", "--reverse")
    assert (code, err) == (1, "round trip failed\n")
    assert len(out.splitlines()) == 9


@pytest.mark.parametrize("by", [1, 7])
def test_verify_field_reads_the_certified_green(capsys, monkeypatch, by):
    # hydrogen-mod-p reduces |H| - (L - g) mod 7, so g with one entry raised
    # by 1 fails it; raised by 7, g mod 7 is unchanged and only the integer
    # checks fail
    _serve_edited(monkeypatch, "cycle:5", "green", (0, 9), by)
    code, out, err = run(capsys, "verify", "cycle:5", "--field", "7")
    assert code == 1
    lines = out.splitlines()
    assert f"FAIL {'hydrogen':16s} max |L - L^-1 - |H|| = {by}" in lines
    mod_p = "ok  " if by == 7 else "FAIL"
    assert f"{mod_p} {'hydrogen-mod-p':16s} L - L^-1 = |H| over F_7" in lines


def test_walk_and_automaton_fail_on_a_changed_hodge(capsys, monkeypatch):
    # |D| with one entry raised by 1: the walk's residual steps it twice and
    # must print the residual of the oracle with |H| = |D| @ |D| materialized,
    # and the automaton's hydrogen check reads that |H|
    b = _serve_edited(monkeypatch, "cycle:5", "dirac_signless", (0, 1))
    code, _, err = run(capsys, "walk", "cycle:5", "--steps", "4", "--reverse")
    unit = (1,) + (0,) * (b.size - 1)
    habs = b.dirac_signless @ b.dirac_signless
    residual = jacobi_residual_two_apply(dynamics.orbit(b, unit, -4, 4), habs)
    assert residual != 0
    assert (code, err) == (1, f"jacobi residual nonzero: {residual}\n")
    code, _, err = run(capsys, "automaton", "cycle:5", "--field", "7", "--steps", "4", "--reverse")
    assert (code, err) == (1, "hydrogen identity failed mod 7\n")


@pytest.mark.parametrize("argv", [("walk",), ("automaton", "--field", "5")], ids=["walk", "automaton"])
def test_automaton_at_24840_cells_forms_no_dense_view(capsys, monkeypatch, argv):
    # bary:grid:60,60 steps L and g, over Z or mod 5, over their nonzeros; a
    # dense list of rows or a dense array of either would be 24840^2 entries
    def refuse(self, *args):
        raise AssertionError(f"dense view of a {self.shape} matrix")

    monkeypatch.setattr(exact.IntMatrix, "_dense_rows", refuse)
    monkeypatch.setattr(exact.IntMatrix, "to_array", refuse)
    code, out, err = run(capsys, *argv[:1], "bary:grid:60,60", *argv[1:], "--steps", "3", "--reverse")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [json.loads(line)["n"] for line in lines] == list(range(-3, 4))
    assert all(len(json.loads(line)["state"]) == 24840 for line in lines)


def test_walk_residual_blocks_gather_no_more_terms_than_the_orbit_has_entries(capsys, monkeypatch):
    # wheel:20 walked 100 steps both ways: 201 states of 61 cells.  The
    # residual steps |D| (160 nonzeros) on blocks of states, and no block may
    # gather more terms, nonzeros times states, than the orbit's 12261
    # entries; the 199 states with a hydrogen defect take 3 blocks of at most 76
    b = operators.bundle_for(from_spec("wheel:20"))
    monkeypatch.setattr(cli, "bundle_for", lambda g: b)
    dirac = b.dirac_signless
    real = exact.IntMatrix.step
    widths = []

    def recorded(self, vec):
        if self is dirac:
            widths.append(np.shape(vec)[1])
        return real(self, vec)

    monkeypatch.setattr(exact.IntMatrix, "step", recorded)
    code, _, err = run(capsys, "walk", "wheel:20", "--steps", "100", "--reverse")
    assert (code, err) == (0, "")
    assert (b.size, dirac.nnz) == (61, 160)
    assert widths == [76, 76, 76, 76, 47, 47]
    assert max(widths) * dirac.nnz <= 201 * 61


_BIG = st.tuples(st.sampled_from((-1, 1)), st.integers(4301, 4400), st.integers(0, 10**6)).map(
    lambda t: t[0] * (10 ** t[1] + t[2])
)


@given(st.lists(st.tuples(st.integers(), st.lists(st.integers() | _BIG, max_size=6)), max_size=8))
@example([(0, []), (-3, [0, -1, 10**4301, -(10**4400)]), (5, [7]), (6, [])])
@settings(max_examples=60, deadline=None)
def test_print_states_writes_the_bytes_of_compact_json(states):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._print_states(iter(states))
    with cli._unlimited_int_digits():
        want = "".join(
            json.dumps({"n": n, "state": list(s)}, separators=(",", ":")) + "\n" for n, s in states
        )
    assert buf.getvalue() == want


def _printed(print_rows) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print_rows()
    return buf.getvalue()


@pytest.mark.parametrize("p", [None, 2, 41, 2**31 - 1, 4294967311])
@pytest.mark.parametrize("spec", ["cycle:5", "petersen:5,2", "wheel:6"])
def test_print_orbit_writes_the_bytes_of_print_states(spec, p):
    # int64 orbits whose values are below their number of entries print
    # from a table of 0..max (p = 2, 41); the others (p = 2^31 - 1 and
    # 4294967311, where signed residues keep g's steps in int64 too) and
    # orbits of Python ints (over Z) print by %d.  Every route gives the
    # bytes of _print_states
    b = operators.bundle_for(from_spec(spec))
    start = tuple(range(1, b.size + 1))
    for lo, hi in ((0, 40), (-20, 20), (0, 0)):
        rows = dynamics.orbit(b, start, lo, hi, p).states
        times = range(lo, hi + 1)
        got = _printed(lambda: cli._print_orbit(times, rows))
        assert got == _printed(lambda: cli._print_states(zip(times, rows.tolist()))), (lo, hi)
        assert [json.loads(line)["state"] for line in got.splitlines()] == rows.tolist()
    assert dynamics.orbit(b, start, 0, 3, p).states.dtype == (object if p is None else np.int64)


@pytest.mark.parametrize("p", [2, 2**31 - 1, 4294967311])
def test_automaton_prints_the_bytes_of_print_states(capsys, p):
    b = operators.bundle_for(from_spec("petersen:5,2"))
    rows = dynamics.orbit(b, (1,) + (0,) * (b.size - 1), -12, 12, p).states
    want = _printed(lambda: cli._print_states(zip(range(-12, 13), rows.tolist())))
    code, out, err = run(capsys, "automaton", "petersen:5,2", "--field", str(p), "--steps", "12", "--reverse")
    assert (code, err, out) == (0, "", want)


@pytest.mark.parametrize(
    "argv", [("verify", "grid:10,10"), ("product", "path:4", "wheel:4")], ids=["verify", "product"]
)
def test_verify_and_product_run_no_bareiss_determinant(capsys, monkeypatch, argv):
    # reciprocity reads the Schur certificate, det L the Schur complement and
    # a product's det its factors', so Bareiss det runs nowhere on these paths
    def refuse(m):
        raise AssertionError("Bareiss det called")

    monkeypatch.setattr(exact, "det", refuse)
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "star:4", "--field", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "unimodularity",
        "hydrogen",
        "green-star",
        "energy",
        "traces",
        "reciprocity",
        "supersymmetry",
        "hydrogen-mod-p",
    ]


def test_bounds_csv_header_and_values(capsys):
    code, out, _ = run(capsys, "--format", "csv", "bounds", "path:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = lines[1].split(",")
    assert row[0] == "P3"
    assert abs(float(row[3]) - 3.75) < 1e-9
    assert abs(float(row[5]) - 3.43141) < 1e-3


def test_csv_output_reads_back_with_the_declared_columns(capsys, monkeypatch):
    # graph names such as K3,3 and gnm:10,12:seed=3, and verify details such
    # as "sum g = 0, chi = 0", hold commas and must come back as one field
    code, out, _ = run(capsys, "--format", "csv", "bounds", "complete_bipartite:3,3", "gnm:10,12:seed=3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(r) for r in rows] == [len(CSV_COLUMNS)] * 3
    assert [r[0] for r in rows[1:]] == ["K3,3", from_spec("gnm:10,12:seed=3").name]
    code, out, _ = run(capsys, "--format", "csv", "verify", "cycle:4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(r) for r in rows] == [3] * len(rows)
    assert ["energy", "True", "sum g = 0, chi = 0"] in rows
    monkeypatch.setattr(cli, "RANDOM_ANALOGUES", (("tiny random", "gnm:10,12", 2),))
    code, out, _ = run(capsys, "--format", "csv", "report", "--seed", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(r) for r in rows] == [2 + 2 * (len(CSV_COLUMNS) - 1) + 1] * len(rows)
    names = [r[1] for r in rows]
    assert "complete_bipartite:3,3" in names and "gnm:10,12:seed=3" in names


def test_bounds_reports_bad_graph_inline(capsys):
    code, out, err = run(capsys, "bounds", "cycle:4", "nosuchfamily:3")
    assert code == 1
    assert "C4" in out
    assert "nosuchfamily" in err


def test_bounds_builds_one_bundle_and_no_connection(capsys, monkeypatch):
    # the walk and edge-count bounds read the edge ends, not L
    calls = {"bundles": 0, "connections": 0}
    init = operators.OperatorBundle.__init__
    build = operators.connection_matrix

    def counting_init(self, *args, **kwargs):
        calls["bundles"] += 1
        init(self, *args, **kwargs)

    def counting_build(c):
        calls["connections"] += 1
        return build(c)

    monkeypatch.setattr(operators.OperatorBundle, "__init__", counting_init)
    monkeypatch.setattr(operators, "connection_matrix", counting_build)
    code, _, _ = run(capsys, "bounds", "cycle:6")
    assert code == 0
    assert calls == {"bundles": 1, "connections": 0}


def test_bounds_row_builds_no_signless_dirac_or_hodge(capsys, monkeypatch):
    # rho(|H|) is the rho_abs column by supersymmetry: the row runs the two
    # Kirchhoff eigensolves and builds neither |d|, |D| nor |H|; the walk and
    # edge-count bounds step A(G') = L - I from the edge ends, with no L
    def refuse(self):
        raise AssertionError("a bounds row built the connection or a signless incidence operator")

    for name in ("connection", "incidence_signless", "dirac_signless", "hodge_signless"):
        monkeypatch.setattr(operators.OperatorBundle, name, property(refuse))
    solves = []
    eig_sym = spectra.eig_sym

    def counting(m):
        solves.append(m.shape)
        return eig_sym(m)

    monkeypatch.setattr(spectra, "eig_sym", counting)
    code, out, err = run(capsys, "bounds", "--format", "csv", "bary:grid:20,20")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        ",".join(CSV_COLUMNS),
        "bary(grid20x20),5.9912,5.9912,6.85714,6.22655,109.707,7.99999",
    ]
    assert solves == [(1160, 1160), (1160, 1160)]


def test_bounds_dump_habs_matches_dense_product(capsys):
    code, out, _ = run(capsys, "bounds", "cycle:4", "--dump", "Habs")
    assert code == 0
    b = operators.bundle_for(from_spec("cycle:4"))
    assert out.endswith(dump_matrix(dense_matmul(b.dirac_signless, b.dirac_signless)))


def test_bounds_dump_prints_from_the_first_rows_bundle(capsys, monkeypatch):
    # one bundle per graph: --dump reads the first row's, not a second one
    specs = ("cycle:4", "path:3")
    names = [from_spec(spec).name for spec in specs]
    made = []
    init = operators.OperatorBundle.__init__

    def counted(self, g):
        made.append(g.name)
        init(self, g)

    monkeypatch.setattr(operators.OperatorBundle, "__init__", counted)
    code, out, _ = run(capsys, "bounds", *specs, "--dump", "L")
    assert code == 0 and made == names
    monkeypatch.undo()
    assert out.endswith(dump_matrix(operators.bundle_for(from_spec("cycle:4")).connection))


def _assert_unknown_dump_rejected(capsys, argv):
    # rejected by the parser, before the subcommand runs or prints anything
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    out = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out.out == ""
    assert out.err.startswith("error: argument --dump: invalid choice: 'nosuch'")
    assert out.err.count("\n") == 1


def test_bounds_dump_unknown_operator_exits(capsys):
    _assert_unknown_dump_rejected(capsys, ("bounds", "cycle:4", "--dump", "nosuch"))


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "cycle:4", "--steps", "3", "--dump", "nosuch"),
        ("--dump", "nosuch", "walk", "cycle:4", "--steps", "3"),
    ],
)
def test_walk_dump_unknown_operator_exits_before_printing(capsys, argv):
    _assert_unknown_dump_rejected(capsys, argv)


def test_spectrum_pairing(capsys):
    code, out, _ = run(capsys, "--format", "json", "spectrum", "cycle:4", "--operator", "L")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix_dim"] == 8
    assert len(doc["eigenvalues"]) == 8
    assert doc["inversion_pairing_residual"] < 1e-9


def test_walk_jsonl_round_trip(capsys):
    code, out, _ = run(capsys, "walk", "cycle:4", "--steps", "4", "--reverse")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["n"] for rec in lines] == list(range(-4, 5))
    assert lines[4]["state"] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert all(isinstance(x, int) for rec in lines for x in rec["state"])


@pytest.fixture
def int_str_digits():
    """Sets Python's int-to-str digit limit; the old limit is restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def test_walk_prints_states_past_the_int_str_digit_limit(capsys, int_str_digits):
    argv = ("walk", "complete:8", "--steps", "700", "--reverse")
    int_str_digits(0)
    code, unlimited, _ = run(capsys, *argv)
    assert code == 0
    last = json.loads(unlimited.splitlines()[-1])["state"]
    assert len(str(max(map(abs, last)))) > 640
    int_str_digits(640)  # the smallest limit Python accepts
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == unlimited
    assert sys.get_int_max_str_digits() == 640


def test_walk_restarts_from_a_printed_state_past_the_int_str_digit_limit(capsys, int_str_digits):
    # the state at time 700 has more digits than the limit allows; a walk
    # started from it, as printed, continues the same trajectory
    int_str_digits(640)  # the smallest limit Python accepts
    code, out, err = run(capsys, "walk", "complete:8", "--steps", "710")
    assert (code, err) == (0, "")
    # each line is {"n":<time>,"state":[<entries>]}, read here as text, since
    # json.loads is under the same digit limit
    lines = [line.split(",", 1) for line in out.splitlines()[700:]]
    state = lines[0][1].removeprefix('"state":[').removesuffix("]}")
    assert len(max(state.split(","), key=len)) > 640
    code, again, err = run(capsys, "walk", "complete:8", "--steps", "10", "--state", state)
    assert (code, err) == (0, "")
    assert again.splitlines() == [f'{{"n":{n},{rest}' for n, (_, rest) in enumerate(lines)]
    assert sys.get_int_max_str_digits() == 640
    code, _, err = run(capsys, "walk", "path:1", "--steps", "1", "--state", "9" * 5000)
    assert (code, err) == (0, "")


def test_oversized_graph_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("# vertices: 99999999999\n0 1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == "error: graph has 100000000000 cells, above the cap of 1000000\n"


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_graph_file_is_a_usage_error(capsys, tmp_path, kind):
    # verify exits 2 with one error line; bounds keeps its per-row error,
    # prints the rows it could build and exits 1
    path = tmp_path / "graph.txt"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff0 1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read graph file {str(path)!r}: ")
    code, out, err = run(capsys, "bounds", "--format", "csv", str(path), "cycle:4")
    assert code == 1 and len(out.splitlines()) == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: cannot read graph file ")


def test_bary_prefixes_are_taken_off_without_recursion(capsys):
    # 1200 prefixes are past the interpreter's recursion limit; each keeps
    # a 1-vertex graph at 1 cell, while the edge of path:2 doubles each time
    code, out, err = run(capsys, "verify", "bary:" * 1200 + "path:1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(": 7/7 checks pass")
    code, out, err = run(capsys, "verify", "bary:" * 1200 + "path:2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: spec '{'bary:' * 1200}path:2' has ") and "above the cap of 1000000" in err


def test_automaton_round_trip(capsys):
    code, out, _ = run(capsys, "automaton", "figure8", "--field", "7", "--steps", "5", "--reverse")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 11
    assert all(0 <= x < 7 for rec in lines for x in rec["state"])


def test_newton_tree_converges(capsys):
    code, out, _ = run(capsys, "newton", "path:4", "--eps", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["residual"] < 1e-10
    assert doc["support_violation_max"] > 0.5  # inverse leaks off the pattern


def test_newton_cycle_reports_singular(capsys):
    code, out, _ = run(capsys, "newton", "cycle:5", "--eps", "0.01")
    assert code == 1
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["singular_jacobian"] is True
    assert doc["sigma_min"] < 1e-10


def test_product_json(capsys):
    code, out, _ = run(capsys, "product", "complete:2", "complete:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["hydrogen_residual_max"] == 4
    assert doc["energy"] == 1


def test_product_accepts_files(tmp_path, capsys):
    from connlab.graphs import from_spec, save_graph

    p = tmp_path / "k2.txt"
    save_graph(from_spec("complete:2"), str(p))
    code, out, _ = run(capsys, "product", str(p), str(p))
    assert code == 0
    assert json.loads(out)["multiplicativity_error"] < 1e-8


@pytest.mark.parametrize("header", ["abc", "", "7.5"])
def test_bad_vertex_count_header_exits_2(tmp_path, capsys, header):
    p = tmp_path / "bad.txt"
    p.write_text(f"# vertices: {header}\n0 1\n")
    code, out, err = run(capsys, "verify", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: line 1: vertex count is not an integer\n"


def test_unnamed_file_graph_gets_basename(tmp_path, capsys):
    p = tmp_path / "tri.txt"
    p.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 0
    assert out.strip().endswith("tri.txt: 7/7 checks pass")


def test_dump_appends_matrix(capsys):
    code, out, _ = run(capsys, "verify", "complete:2", "--dump", "L")
    assert code == 0
    assert "1 0 1" in out.replace("  ", " ")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["bounds"])  # missing graph argument
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--format", "yaml", "verify", "cycle:3"])
    assert excinfo.value.code == 2


USAGE_ERRORS = [
    (("verify", "gnm:5,3"), "error: random families require an explicit seed"),
    (("verify", "cycle:x"), "error: spec 'cycle:x' has a parameter that is not a number"),
    (("verify", "cycle:4", "--field", "4"), "error: argument --field: 4 is not a prime"),
    (("walk", "cycle:4", "--steps", "-3"), "error: argument --steps: -3 is negative"),
    (("walk", "cycle:4", "--state", "1,0"), "error: state has 2 entries, expected 8"),
    (("automaton", "cycle:4", "--field", "4"), "error: argument --field: 4 is not a prime"),
    (("newton", "path:4", "--eps", "-1"), "error: argument --eps: -1 is negative"),
    (("newton", "path:4", "--eps", "nan"), "error: argument --eps: nan is not finite"),
    (("newton", "path:4", "--eps", "inf"), "error: argument --eps: inf is not finite"),
    (("newton", "path:4", "--eps", "x"), "error: argument --eps: 'x' is not a number"),
    (("newton", "path:4", "--tol", "0"), "error: argument --tol: 0 is not positive"),
    (("newton", "path:4", "--tol", "-0.5"), "error: argument --tol: -0.5 is not positive"),
    (("newton", "path:4", "--tol", "nan"), "error: argument --tol: nan is not finite"),
    (("newton", "path:4", "--max-iter", "-1"), "error: argument --max-iter: -1 is negative"),
    (("newton", "path:4", "--max-iter", "x"), "error: argument --max-iter: 'x' is not an integer"),
    (
        ("walk", "complete:99999999999"),
        "error: spec 'complete:99999999999' has 4999999999950000000000 cells, above the cap of 1000000",
    ),
    (
        ("walk", "path:1", "--state", "9" * 5000 + "x"),
        "error: state '" + "9" * 40 + "...' is not a comma-separated list of integers",
    ),
    (
        ("verify", "cycle:4", "--field", str(exact.PRIME_TEST_LIMIT)),
        f"error: argument --field: cannot decide whether {exact.PRIME_TEST_LIMIT} is prime: "
        f"the test is exact below {exact.PRIME_TEST_LIMIT}",
    ),
    (("verify", "cycle:4.5"), "error: cycle parameter 4.5 is not an integer"),
    (("verify", "cycle:nan"), "error: spec 'cycle:nan' has a parameter that is not finite"),
    (("verify", "cycle:1e999"), "error: spec 'cycle:1e999' has a parameter that is not finite"),
    # a shared flag that the command does not read leaves with its value, so
    # the value is never read as the graph; a following flag or "--" is
    # not a value
    (("--seed", "3", "walk", "cycle:3"), "error: unrecognized arguments: --seed 3"),
    (("walk", "--seed", "3", "cycle:3"), "error: unrecognized arguments: --seed 3"),
    (("--format", "csv", "product", "path:2", "cycle:3"), "error: unrecognized arguments: --format csv"),
    (("walk", "cycle:3", "--seed", "-3", "--bogus"), "error: unrecognized arguments: --seed -3 --bogus"),
    (("walk", "cycle:3", "--bogus", "--seed=3"), "error: unrecognized arguments: --seed=3 --bogus"),
    (("walk", "--seed", "--steps", "2", "cycle:3"), "error: unrecognized arguments: --seed"),
    (("product", "path:2", "--format", "--", "cycle:3"), "error: unrecognized arguments: --format"),
]


@pytest.mark.parametrize(
    "spec, plain", [("gnp:10,1e-1:seed=1", "gnp:10,0.1:seed=1"), ("cycle:4e0", "cycle:4.0")]
)
def test_verify_reads_exponent_parameters_as_numbers(capsys, spec, plain):
    # a token is an int when it reads as one, else a float, so exponent
    # notation names the graph that the plain decimal does
    code, out, err = run(capsys, "verify", spec)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "verify", plain)


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors_print_one_line_and_exit_2(capsys, argv, message):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # parser errors leave through argparse
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == message + "\n"


COMMANDS = ("verify", "bounds", "spectrum", "walk", "automaton", "newton", "product", "report")
# the shared flags, each with a value, and the commands that read each: the
# table of the README, and of cli._COMMANDS
SHARED_VALUES = {"--format": "json", "--dump": "L", "--seed": "5"}
READS = {
    "verify": {"--format", "--dump"},
    "bounds": {"--format", "--dump"},
    "spectrum": {"--format", "--dump"},
    "walk": {"--dump"},
    "automaton": {"--dump"},
    "newton": {"--seed"},
    "product": set(),
    "report": {"--format", "--seed"},
}


def _outcome(capsys, main, argv):
    """(exit code, stdout, stderr) of main(argv), parser exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _name_first(argv):
    """argv with its command name moved in front of the whole shared flags,
    with their values, that come before it: a whole shared flag before the
    name reads as if it came right after it."""
    i = 0
    while i < len(argv) and argv[i] not in COMMANDS:
        if argv[i] in SHARED_VALUES:
            i += 2
        elif argv[i].partition("=")[0] in SHARED_VALUES:
            i += 1
        else:
            return argv
    return argv if i >= len(argv) else (argv[i], *argv[:i], *argv[i + 1 :])


def _unread_flags(argv):
    """(argv less each shared flag its command does not read, those flags),
    when argv starts with a command name: a spaced flag goes with the next
    token unless that is a flag other than a negative number, and nothing
    after "--" is a flag."""
    if not argv or argv[0] not in COMMANDS:
        return argv, []
    unread = SHARED_VALUES.keys() - READS[argv[0]]
    end = argv.index("--") if "--" in argv else len(argv)
    taken = set()
    for k, token in enumerate(argv[:end]):
        if k not in taken and token.partition("=")[0] in unread:
            taken.add(k)
            value = argv[k + 1] if k + 1 < end else "-"
            if token in unread and (not value.startswith("-") or re.fullmatch(r"-\d+|-\d*\.\d+", value)):
                taken.add(k + 1)
    return [t for k, t in enumerate(argv) if k not in taken], [argv[k] for k in sorted(taken)]


def _reference_main(argv):
    """cli.main as run on the parser written out one subcommand at a time,
    after the command name is moved to the front; a shared flag that the
    command does not read is reported with its value, before whatever else
    the parser leaves unrecognized."""
    parser = reference_parser()
    argv, unread = _unread_flags(_name_first(argv))
    args, extras = parser.parse_known_args(argv)
    if unread or extras:
        parser.error(f"unrecognized arguments: {' '.join(unread + extras)}")
    try:
        return args.fn(args)
    except (cli.UsageError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in USAGE_ERRORS]
    + [("--help",), ("-h",), ("--he", "walk"), ("--format", "json", "--help", "bounds")]
    + [(name, "--help") for name in COMMANDS]
    + [("--help", name) for name in COMMANDS]
    + [
        (),
        ("frobnicate", "cycle:4"),
        ("cycle:4", "verify"),
        ("--bogus", "cycle:4", "verify"),
        ("--se", "3", "verify", "cycle:3"),
        ("--", "verify", "cycle:3"),
        ("walk", "-h"),
        ("--format", "json", "bounds", "--help"),
        ("--format", "yaml", "verify", "cycle:3"),
        ("--seed", "x", "verify", "cycle:3"),
        ("--seed", "verify", "bounds", "cycle:3"),
        ("--dump", "walk", "walk", "cycle:3"),
        ("--seed", "-5", "newton", "path:3"),
        ("--seed",),
        ("bounds",),
        ("--format", "json", "bounds", "cycle:4", "gnm:5,3"),
        ("bounds", "cycle:4", "path:3", "--format", "csv"),
        ("--format=csv", "bounds", "cycle:4"),
        ("--dump", "L", "verify", "complete:2"),
        ("verify", "complete:2", "--dump=g", "--format", "json"),
        ("verify", "cycle:3", "--bogus"),
        ("spectrum", "cycle:3", "--operator", "g"),
        ("walk", "cycle:3", "--steps", "2", "--reverse", "--seed", "4"),
        ("automaton", "cycle:3", "--steps", "2"),
        ("--seed", "3", "newton", "path:3", "--max-iter", "5"),
        ("product", "path:2", "cycle:3", "--format", "csv"),
        # a flat parser reads the flags on both sides of the name at once
        ("--format", "json", "bounds", "cycle:4", "--format", "csv"),
        ("--seed=-5", "newton", "path:3"),
        ("--dump=L", "verify", "complete:2"),
        ("--seed", "3", "walk", "--help"),
        ("bounds", "--form", "csv", "cycle:4"),
        ("walk", "cycle:3", "--s", "2"),
        ("--format", "csv", "verify", "--", "cycle:3"),
        ("--dump", "L", "walk", "walk"),
        # the name is taken out at its position, not where its text first appears
        ("--seed", "verify", "--format", "json", "verify", "cycle:3"),
        # a shared flag that the command does not read, after its name or before
        ("newton", "path:3", "--dump", "L"),
        ("report", "--dump=L"),
        ("--format", "csv", "product", "path:2", "cycle:3"),
        ("--seed", "3", "walk", "cycle:3"),
        ("--format", "json", "--help"),
        ("verify", "cycle:3", "--form", "json"),
    ],
)
def test_pruned_parser_matches_the_full_one(capsys, argv):
    # main parses a named command with one flat parser; every byte it prints
    # and its exit code match the hand-written parser of all eight commands,
    # each with only the shared flags it reads, so the table holds every
    # argument and a help flag still lists them all
    assert _outcome(capsys, cli.main, argv) == _outcome(capsys, _reference_main, argv)


# each command, run with no shared flag, as the shared-flag tests extend it
_PLAIN = {
    "verify": ("verify", "cycle:3"),
    "bounds": ("bounds", "cycle:3"),
    "spectrum": ("spectrum", "cycle:3"),
    "walk": ("walk", "cycle:3", "--steps", "2"),
    "automaton": ("automaton", "cycle:3", "--field", "5", "--steps", "2"),
    "newton": ("newton", "path:3"),
    "product": ("product", "path:2", "cycle:3"),
    "report": ("report",),
}


def test_the_command_table_and_the_readme_give_each_command_the_shared_flags_it_reads():
    assert {name: set(entry[1]) for name, entry in cli._COMMANDS.items()} == READS
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("| command |"))
    flags = [re.search(r"--[a-z]+", cell).group() for cell in lines[start].split("|")[2:-1]]
    table = {}
    for line in lines[start + 2 : start + 2 + len(COMMANDS)]:
        name, *cells = [cell.strip() for cell in line.split("|")[1:-1]]
        table[name.strip("`")] = {flag for flag, cell in zip(flags, cells) if cell == "yes"}
    assert table == READS


@pytest.mark.parametrize("flag", SHARED_VALUES)
@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_takes_only_the_shared_flags_it_reads(capsys, name, flag):
    # the 11 pairs in READS run as without the flag, with its effect; the 13
    # others are usage errors, after the name or before it
    plain, value = _PLAIN[name], SHARED_VALUES[flag]
    after = _outcome(capsys, cli.main, (*plain, flag, value))
    before = _outcome(capsys, cli.main, (flag, value, *plain))
    if flag not in READS[name]:
        assert after == before == (2, "", f"error: unrecognized arguments: {flag} {value}\n")
        return
    assert before == after
    code, out, err = after
    _, plain_out, _ = _outcome(capsys, cli.main, plain)
    assert (code, err) == (0, "")
    if flag == "--dump":
        assert out == plain_out + dump_matrix(operators.bundle_for(from_spec(plain[1])).connection)
    elif flag == "--format":
        assert json.loads(out) and not plain_out.startswith("{")
    else:
        assert out != plain_out


def test_an_abbreviated_shared_flag_parses_after_the_name_only(capsys):
    # after the name the command's parser expands --form to --format; before
    # it stands the connlab parser, which has no flags to expand
    code, out, err = run(capsys, "verify", "cycle:3", "--form", "json")
    assert (code, err) == (0, "") and json.loads(out)["ok"] is True
    code, out, err = _outcome(capsys, cli.main, ("--form", "json", "verify", "cycle:3"))
    assert (code, out) == (2, "")
    assert err.startswith("error: argument command: invalid choice: 'json' (choose from ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "cycle:3", "--seed", "4", "--help"),
        ("walk", "--help", "cycle:3", "--seed", "4"),
        ("--seed", "4", "walk", "--help"),
        ("product", "--format", "csv", "-h"),
    ],
)
def test_a_help_flag_wins_over_a_shared_flag_the_command_does_not_read(capsys, argv):
    # argparse exits on a help flag as it reads it, and reports unrecognized
    # arguments only once the whole line is read, so the command's help
    # comes out with exit 0 whichever of the two stands first
    name = next(token for token in argv if token in COMMANDS)
    assert _outcome(capsys, cli.main, argv) == (0, cli.build_parser(name).format_help(), "")


def _args_reads(defs: dict, name: str, param: str = "args") -> set[str]:
    """The attributes of parameter param that function name reads, with
    those that the functions it passes param to read of theirs."""
    reads = set()
    for node in ast.walk(defs[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == param:
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in defs:
            for arg, passed in zip(defs[node.func.id].args.args, node.args):
                if isinstance(passed, ast.Name) and passed.id == param:
                    reads |= _args_reads(defs, node.func.id, arg.arg)
    return reads


def _unread_arguments(commands: dict) -> list[tuple[str, str]]:
    """(command, flag or positional) for each argument of a command table
    entry whose dest cmd_<command> never reads."""
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unread = []
    for name, (_, shared, arguments) in commands.items():
        reads = _args_reads(defs, f"cmd_{name}")
        unread += [(name, f) for f in (*shared, *arguments) if f.lstrip("-").replace("-", "_") not in reads]
    return unread


def test_every_argument_of_a_command_is_read_by_its_handler():
    # cmd_<name>, with the helpers it hands args to (_run_orbit, _maybe_dump),
    # reads args.<dest> of every flag and positional that its entry gives it
    assert _unread_arguments(cli._COMMANDS) == []
    # walk reads --dump through _run_orbit and _maybe_dump, and never --seed
    text, shared, arguments = cli._COMMANDS["walk"]
    assert _unread_arguments({"walk": (text, (*shared, "--seed"), arguments)}) == [("walk", "--seed")]


def _physical_memory(monkeypatch, nbytes: int) -> None:
    """Let os.sysconf report nbytes of physical memory, in pages of 1 byte."""
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)


def _refuse_dense_routes(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused run reached its dense route")

    for name in ("orbit", "eig_sym", "solve_perturbed", "product_checks", "bounds_report"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "argv, what, shape",
    [
        (("walk", "cycle:3", "--steps", "4000000000000"), "the orbit", (4000000000001, 6)),
        (("walk", "cycle:3", "--steps", "4000000000000", "--reverse"), "the orbit", (8000000000001, 6)),
        (("automaton", "cycle:3", "--field", "5", "--steps", "4000000000000"), "the orbit", (4000000000001, 6)),
        # grid:300,300 has 90000 vertices and 179400 edges
        (("spectrum", "grid:300,300"), "the spectrum of L", (269400, 269400)),
        # L of grid:100,100 has 29800 cells on its diagonal, and above it 39600
        # vertex-edge incidences and 58804 pairs of edges that share a vertex
        (("newton", "grid:100,100"), "the Newton Jacobian", (128204, 128204)),
        # grid:30,30 has 2640 cells
        (("product", "grid:30,30", "grid:30,30"), "each product spectrum", (2640**2, 2640**2)),
    ],
)
def test_an_array_beyond_physical_memory_is_a_usage_error(capsys, monkeypatch, argv, what, shape):
    # numpy is never asked for the array: one error line and exit 2, where a
    # MemoryError traceback and exit 1 came before
    _refuse_dense_routes(monkeypatch)
    code, out, err = _outcome(capsys, cli.main, argv)
    assert (code, out) == (2, "")
    rows, cols = shape
    assert re.fullmatch(
        rf"error: {what} needs a {rows} x {cols} array of {8 * rows * cols / 2**30:.1f} GiB, "
        r"more than the \d+\.\d GiB of memory\n",
        err,
    )


@pytest.mark.parametrize(
    "argv, shape",
    [
        (("walk", "cycle:3", "--steps", "10"), (11, 6)),
        (("walk", "cycle:3", "--steps", "10", "--reverse"), (21, 6)),
        (("automaton", "path:3", "--field", "5", "--steps", "4", "--reverse"), (9, 5)),
        (("spectrum", "wheel:4", "--operator", "H0"), (5, 5)),
        (("spectrum", "wheel:4", "--operator", "H1abs"), (8, 8)),
        (("spectrum", "wheel:4", "--operator", "Habs"), (13, 13)),
        # L of path:3: 5 diagonal cells, 4 vertex-edge incidences and 1 pair
        # of edges that share a vertex
        (("newton", "path:3"), (10, 10)),
        (("product", "path:2", "cycle:3"), (18, 18)),
        # grid:3,4 has 12 vertices, so cycle:4 would pass where it is refused
        (("bounds", "grid:3,4", "cycle:4"), (12, 12)),
    ],
)
def test_a_run_refuses_exactly_the_arrays_beyond_physical_memory(capsys, monkeypatch, argv, shape):
    # the orbit has a row per time; spectrum's array is its operator's,
    # newton's Jacobian has a row and a column per nonzero of L on or above
    # its diagonal, product's spectra one per product cell and each of
    # bounds' Kirchhoff spectra one per vertex of its graph
    want = _outcome(capsys, cli.main, argv)
    assert want[0] in (0, 1) and want[2] == ""
    need = 8 * shape[0] * shape[1]
    _physical_memory(monkeypatch, need)
    assert _outcome(capsys, cli.main, argv) == want
    _physical_memory(monkeypatch, need - 1)
    _refuse_dense_routes(monkeypatch)
    code, out, err = _outcome(capsys, cli.main, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: ") and f" needs a {shape[0]} x {shape[1]} array of " in err
    assert err.count("\n") == 1


# The argv fuzz: lines drawn from a grammar of the eight commands, their own
# flags and the shared ones, spaced, after "=" or abbreviated, with good and
# bad values, graph specs, short garbage and a "--".  Steps are tiny or far
# beyond any memory, and graphs small, so that every line runs in
# milliseconds: at most 200 cells, 24 for newton's dense Jacobian, and 16 a
# factor for product's spectra.
_FLAG_VALUES = {
    "--format": ["json", "csv", "pretty", "yaml", ""],
    "--seed": ["0", "7", "-5", "x", "3.5"],
    "--dump": ["L", "g", "Habs", "nosuch"],
    "--field": ["2", "5", "7", "4", "1", "-3", "x", "2147483647", "10000000000000061"],
    "--steps": ["0", "1", "3", "12", "-1", "x", "1e3", "", "4000000000000", "9" * 30],
    "--state": ["1", "1,0", "0,1,x", "", "1,2,3,4,5,6", "-1,0,0,0,0,0,0,0"],
    "--operator": ["L", "H", "Habs", "H0", "H1abs", "g", "nosuch"],
    "--eps": ["0.01", "0", "0.5", "-1", "nan", "inf", "x"],
    "--tol": ["1e-10", "1e-3", "0", "-0.5", "nan", "x"],
    "--max-iter": ["0", "3", "50", "-1", "x"],
    "--bogus": ["1"],
}
_FUZZ_GRAPHS = ["cycle:4", "path:1", "path:3", "star:4", "wheel:5", "grid:3,4", "complete:5", "figure8",
                "petersen:5,2", "bary:star:3", "gnm:8,10:seed=2"]
_POSITIONALS = {"bounds": 2, "product": 2, "report": 0}
_CELL_CAP = {"newton": 24, "product": 16}


def _cells(spec: str) -> int:
    """The cells of the graph a spec names, 0 when it names none."""
    try:
        g = from_spec(spec)
    except GraphError:
        return 0
    return g.n + g.e


@st.composite
def _option(draw, flag: str, forms=("spaced", "spaced", "spaced", "equals", "abbreviated", "bare")) -> list[str]:
    """flag spaced from its value, after "=", abbreviated, or with no value."""
    if flag == "--reverse":
        return [draw(st.sampled_from(["--reverse", "--rev", "--reverse=x"]))]
    value = draw(st.sampled_from(_FLAG_VALUES[flag]))
    form = draw(st.sampled_from(forms))
    if form == "equals":
        return [f"{flag}={value}"]
    if form == "abbreviated":
        flag = flag[: draw(st.integers(3, len(flag)))]
    return [flag] if form == "bare" else [flag, value]


def _rarely(draw) -> bool:
    """True one time in ten; the last choice, as Hypothesis leans to the first."""
    return draw(st.sampled_from(range(10))) == 9


@st.composite
def _argvs(draw) -> tuple[str, list[str]]:
    """(command, argv): whole shared flags may stand before the name, for
    its flat parser, and rarely any other group of tokens, for the full
    parser."""
    name = draw(st.sampled_from(COMMANDS))
    cap = _CELL_CAP.get(name, 200)
    graph = st.one_of(st.sampled_from(_FUZZ_GRAPHS), st.sampled_from(_FUZZ_GRAPHS), _specs())
    graph = graph.filter(lambda s: _cells(s) <= cap)
    wanted = _POSITIONALS.get(name, 1)
    # now and then one positional more or one fewer than the command takes
    groups = [[draw(graph)] for _ in range(wanted + _rarely(draw) - (wanted > 0 and _rarely(draw)))]
    own = [flag for flag in cli._COMMANDS[name][2] if flag.startswith("--")]
    flags = st.sampled_from(own * 3 + [*SHARED_VALUES, "--bogus"])
    groups += [draw(_option(flag)) for flag in draw(st.lists(flags, max_size=3))]
    if _rarely(draw):
        groups.append([draw(st.text(max_size=4))])
    if _rarely(draw):
        groups.append([draw(st.sampled_from(["-h", "--help"]))])
    groups = draw(st.permutations(groups))
    shared = draw(st.lists(st.sampled_from(list(SHARED_VALUES)), max_size=1))
    lead = [draw(_option(flag, ("spaced", "equals"))) for flag in shared]
    if groups and _rarely(draw):
        lead.append(groups.pop(0))
    argv = [token for group in lead + [[name]] + groups for token in group]
    if _rarely(draw):
        argv.insert(draw(st.integers(0, len(argv))), "--")
    return name, argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argvs())
@example(("walk", ["walk", "cycle:3", "--steps", "9" * 30, "--reverse"]))
@example(("automaton", ["--dump", "L", "automaton", "cycle:3", "--field=5", "--steps", "4000000000000"]))
def test_any_command_line_exits_0_1_or_2_and_a_usage_error_prints_one_line(line):
    name, argv = line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # parser errors leave through argparse
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    head = argv[: argv.index("--")] if "--" in argv else argv
    if any(token.partition("=")[0] in SHARED_VALUES.keys() - READS[name] for token in head):
        # a shared flag the command does not read: a usage error, unless
        # the line asked for help
        assert code == 2 or (code == 0 and out.startswith("usage: ") and err == "")


def _counting_parsers(monkeypatch):
    """The prog of every parser cli builds from now on, in order, with
    "subparsers" for each subparsers action, and a weak reference to each
    parser."""
    built, refs = [], []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)
            refs.append(weakref.ref(self))

    subparsers_init = argparse._SubParsersAction.__init__

    def counted_subparsers_init(self, *args, **kwargs):
        subparsers_init(self, *args, **kwargs)
        built.append("subparsers")

    monkeypatch.setattr(cli, "_Parser", Counted)
    monkeypatch.setattr(argparse._SubParsersAction, "__init__", counted_subparsers_init)
    return built, refs


def test_a_command_builds_its_own_parser_only(capsys, monkeypatch):
    built, refs = _counting_parsers(monkeypatch)
    code, out, err = _outcome(capsys, cli.main, ("bounds", "cycle:4"))
    assert (code, err) == (0, "") and out.startswith("name")
    assert built == ["connlab bounds"]
    # the console script calls main() with no argv, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["connlab", "bounds", "cycle:4"])
    assert _outcome(capsys, lambda _: cli.main(), ()) == (code, out, err)
    assert built == ["connlab bounds"] * 2
    del built[:]
    assert _outcome(capsys, cli.main, ("--help",))[0] == 0
    assert built == ["connlab", "subparsers"] + [f"connlab {name}" for name in COMMANDS]
    # each parser is built afresh and dropped when its call ends
    gc.collect()
    assert len(refs) == 11 and all(ref() is None for ref in refs)


def test_consecutive_calls_share_no_parsed_state(capsys):
    # a flag given to one call does not carry over to the next
    code, out, err = run(capsys, "--format", "json", "verify", "cycle:3")
    assert (code, err) == (0, "") and json.loads(out)["ok"] is True
    code, out, err = run(capsys, "verify", "cycle:3")
    assert (code, err) == (0, "")
    assert out.startswith("ok   unimodularity") and out.endswith("C3: 7/7 checks pass\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "cycle:3"),
        ("bounds", "cycle:3"),
        ("spectrum", "cycle:3"),
        ("walk", "cycle:3"),
        ("automaton", "cycle:3", "--field", "5"),
        ("newton", "path:3"),
        ("product", "path:2", "cycle:3"),
        ("report",),
    ],
)
def test_each_command_reaches_its_own_handler(monkeypatch, argv):
    reached = []

    def handler(name):
        return lambda args: reached.append((name, args.command)) or 0

    for name in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", handler(name))
    assert cli.main(list(argv)) == 0
    assert reached == [(argv[0], argv[0])]


def test_a_sixteen_digit_prime_field_parses_at_once(capsys, monkeypatch):
    # 10^16 + 61 is prime; trial division spent seconds on it, in the parser
    # and again in every FieldMatrix built over it.  Miller-Rabin takes one
    # modular power per base, a count that does not depend on machine load
    powers = []

    def counted_pow(*args):
        powers.append(args)
        return pow(*args)

    monkeypatch.setattr(exact, "pow", counted_pow, raising=False)
    parser = cli.build_parser()
    start = time.perf_counter()
    args = parser.parse_args(["verify", "cycle:4", "--field", "10000000000000061"])
    assert time.perf_counter() - start < 0.1
    assert args.field == 10**16 + 61
    assert len(powers) <= len(exact._WITNESSES) == 12
    code, out, _ = run(capsys, "verify", "cycle:4", "--field", "10000000000000061")
    assert code == 0 and "ok   hydrogen-mod-p" in out


def test_newton_max_iter_zero_reports_without_iterating(capsys):
    code, out, err = run(capsys, "newton", "path:4", "--max-iter", "0")
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["iterations"] == 0
    assert len(doc["residual_history"]) == 1


def test_bounds_keeps_per_row_errors_and_exit_1(capsys):
    code, out, err = run(capsys, "bounds", "cycle:4", "gnm:5,3")
    assert code == 1
    assert "C4" in out
    assert err == "error: gnm:5,3: random families require an explicit seed\n"


def test_seed_flag_position_irrelevant(capsys):
    code1, out1, _ = run(capsys, "--seed", "5", "newton", "path:4")
    code2, out2, _ = run(capsys, "newton", "path:4", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_byte_identical_output(capsys):
    args = ("--format", "csv", "bounds", "gnm:16,24:seed=3", "cycle:6")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_report_small_and_deterministic(capsys, monkeypatch):
    # shrink the seeded analogues so the full pipeline runs in seconds; the
    # sparse experiment's 50 trials take about 0.03 s, and the full-size run
    # is exercised by the acceptance suite
    monkeypatch.setattr(cli, "RANDOM_ANALOGUES", (("tiny random", "gnm:10,12", 2),))
    code1, out1, _ = run(capsys, "--format", "json", "report", "--seed", "11")
    code2, out2, _ = run(capsys, "report", "--seed", "11", "--format", "json")
    assert code1 == code2
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["deterministic_ok"] is True
    assert doc["sparse_random_experiment"]["trials"] == 50
    families = [s["family"] for s in doc["deterministic"]]
    assert "cycle" in families and "petersen" in families
    assert doc["random_analogues"][0]["rows"][0]["name"] == "gnm:10,12:seed=11"


def test_report_seed7_matches_golden_output(capsys):
    # tests/data/report_seed7.txt is the default-format stdout of
    # `connlab report --seed 7` from before H, |H| and the k-walk counts
    # moved off the dense matrix products
    code, out, _ = run(capsys, "report", "--seed", "7")
    assert code == 0
    assert out.encode() == (DATA / "report_seed7.txt").read_bytes()


GOLDEN = json.loads((DATA / "dynamics_golden.json").read_text())


def _matches_golden(capsys, case):
    code, out, _ = run(capsys, *case["command"].split())
    data = out.encode()
    assert code == case["exit"]
    assert len(data) == case["bytes"]
    assert hashlib.sha256(data).hexdigest() == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN, ids=[case["command"] for case in GOLDEN])
def test_dynamics_matches_golden_output(capsys, case):
    # tests/data/dynamics_golden.json holds the size and SHA-256 of the stdout
    # of each command as printed by the dense, elimination-based dynamics
    # routes; the walk output alone is about 800 kB
    _matches_golden(capsys, case)


def _counting(monkeypatch, name, modules):
    """Replace `name` in each module by one wrapper that counts its calls."""
    real = getattr(exact, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in modules:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)
    return calls


def _no_elimination_inverse(*modules):
    # the Gauss-Jordan inverses over Z and over F_p live in tests/oracles.py:
    # no package module holds either, so nothing there can call them
    assert not any(
        hasattr(mod, name) for mod in modules for name in ("inverse_unimodular", "field_inverse")
    )


def test_walk_reverse_takes_green_from_the_bundle(capsys):
    _no_elimination_inverse(exact, dynamics, operators, cli)
    code, out, _ = run(capsys, "walk", "wheel:6", "--steps", "7", "--reverse")
    assert code == 0
    assert len(out.splitlines()) == 15


def test_automaton_and_verify_field_run_no_elimination(capsys):
    # both read L^-1 over F_p as the certified g reduced mod p: automaton
    # steps back with it, and both close on the integer hydrogen residual
    # reduced mod p
    _no_elimination_inverse(exact, dynamics, operators, cli)
    code, out, _ = run(capsys, "automaton", "petersen:5,2", "--field", "11", "--steps", "9", "--reverse")
    assert code == 0
    assert len(out.splitlines()) == 19
    code, out, _ = run(capsys, "verify", "petersen:5,2", "--field", "11")
    assert code == 0
    assert out.splitlines()[-1].endswith(": 8/8 checks pass")


def test_automaton_reverse_reduces_each_operator_once(capsys, monkeypatch):
    # the backward steps and the round trip share one g mod p, L mod p is
    # reduced once for the forward steps, and the hydrogen residual once
    calls = _counting(monkeypatch, "field_reduce", (exact, dynamics, operators, cli))
    code, out, _ = run(capsys, "automaton", "petersen:5,2", "--field", "11", "--steps", "9", "--reverse")
    assert code == 0
    assert len(out.splitlines()) == 19
    b = operators.bundle_for(from_spec("petersen:5,2"))
    reduced = [m for m, p in calls if p == 11]
    assert len(calls) == len(reduced) == 3
    assert [m == b.connection for m in reduced] == [True, False, False]
    assert [m == b.green for m in reduced] == [False, True, False]
    assert reduced[2].is_zero()


def test_automaton_reverse_steps_once_per_time(capsys, monkeypatch):
    # --steps 9 --reverse steps diag(L, g) mod 11 9 times, one 50-entry
    # state of psi(k) and psi(-k) each; the round trip then takes g mod 11
    # over the 9 forward states psi(1..9) in blocks of 250 // nnz(g) = 2
    # columns, so the gathered terms never outnumber the 10 x 25 forward
    # states
    real = exact.FieldMatrix.step
    shapes = []

    def counted(self, vec):
        shapes.append(np.shape(vec))
        return real(self, vec)

    monkeypatch.setattr(exact.FieldMatrix, "step", counted)
    code, out, _ = run(capsys, "automaton", "petersen:5,2", "--field", "11", "--steps", "9", "--reverse")
    assert code == 0
    assert len(out.splitlines()) == 19
    assert operators.bundle_for(from_spec("petersen:5,2")).green.nnz == 115
    assert shapes == [(50,)] * 9 + [(25, 2)] * 4 + [(25, 1)]


def test_product_takes_its_inverse_from_the_factors(capsys):
    _no_elimination_inverse(exact, dynamics, operators, products, cli)
    code, out, _ = run(capsys, "product", "path:3", "cycle:4")
    assert code == 0
    assert json.loads(out)["energy_ok"] is True


def _schur_operands(b) -> tuple:
    """([W C], [[-U], [I]]) for L = [[I, U], [W, C]]: their product is the
    Schur complement C - W U."""
    v, n = b.v, b.size
    rows = b.connection.rows
    lift = [[-x for x in row[v:]] for row in rows[:v]]
    lift += [[int(i == j) for j in range(n - v)] for i in range(n - v)]
    return b.connection.block(v, n, 0, n), from_rows(lift, ncols=n - v)


def _design_products(argv) -> list:
    """The operand pairs of every product verify and product are meant to
    form: the Dirac squares behind H and |H|, supersymmetry's Gram products
    of d and |d|, and the certificates' sparse products: L g for each
    certified green, the Schur complement of each L, and (U S^-1) W for
    the block inverse, where S = -I."""
    if argv[0] == "product":
        bundles = [operators.bundle_for(from_spec(spec)) for spec in argv[1:]]
        pairs = [(b.dirac, b.dirac) for b in bundles]
        for b in bundles:  # each factor's green, and its Schur blocks for det and reciprocity
            pairs += [(b.connection, b.green), _schur_operands(b)]
        a, b = bundles
        return pairs + [(a.connection.kron(b.connection), a.green.kron(b.green))]
    b = operators.bundle_for(from_spec(argv[1]))
    pairs = [(b.dirac, b.dirac), (b.dirac_signless, b.dirac_signless)]
    for d in (b.incidence, b.incidence_signless):
        pairs += [(d.transpose(), d), (d, d.transpose())]
    v, n = b.v, b.size
    w, u = b.connection.block(v, n, 0, v), b.connection.block(0, v, v, n)
    # the Schur complement is formed once for det, green-star and reciprocity
    return pairs + [(b.connection, b.green), _schur_operands(b), (linear_combination((u, -1)), w)]


@pytest.mark.parametrize(
    "argv",
    [("verify", "wheel:6", "--field", "5"), ("product", "path:3", "cycle:4")],
    ids=["verify", "product"],
)
def test_verify_and_product_form_no_dense_product(capsys, monkeypatch, argv):
    # H and |H| are Dirac squares and supersymmetry compares their blocks
    # with d^T d and d d^T; green-star reads the Schur block inverse and
    # reciprocity the Schur complement of L, and the certificates multiply
    # only L by g and the off-diagonal blocks of L, so no L @ L or g @ g is
    # formed.  FieldMatrix products go through IntMatrix.__matmul__ too
    real = exact.IntMatrix.__matmul__
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    expected = _design_products(argv)
    monkeypatch.setattr(exact.IntMatrix, "__matmul__", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == len(expected)
    for pair in expected:
        assert calls.count(pair) == expected.count(pair), [(a.shape, b.shape) for a, b in calls]


# the kernel counts supersymmetry reads on wheel:6 when both ranks are
# decided; its Betti numbers are 1 and 6
_WHEEL6_KERNELS = "kernels 1, 6 (signless 0, 5), Betti 1, 6"


def _supersymmetry_line(out: str) -> str:
    return next(line for line in out.splitlines() if line.split()[1] == "supersymmetry")


@pytest.mark.parametrize(
    "mutation, signless, failed",
    [
        (negated_edge_row, False, ["supersymmetry"]),
        (negated_edge_row, True, ["hydrogen", "traces", "supersymmetry"]),
        (stray_vertex_entry, False, ["supersymmetry"]),
        (stray_vertex_entry, True, ["hydrogen", "supersymmetry"]),
    ],
    ids=[
        "negated_edge_row-signed",
        "negated_edge_row-signless",
        "stray_vertex_entry-signed",
        "stray_vertex_entry-signless",
    ],
)
def test_verify_fails_supersymmetry_on_a_faulty_dirac_builder(
    capsys, monkeypatch, mutation, signless, failed
):
    # the Hodge blocks are cut from the Dirac square, so a Dirac builder
    # whose square is not d^T d (+) d d^T fails the Gram check.  A signed
    # fault touches nothing else, since hydrogen and traces read only the
    # signless operators; a stray entry in the signed vertex block keeps H0
    # and H1, so only the zero off-diagonal blocks of H catch it
    real = operators.dirac_from_incidence
    monkeypatch.setattr(operators, "dirac_from_incidence", mutation(real, signless))
    code, out, _ = run(capsys, "verify", "wheel:6")
    assert code == 1
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == failed
    part = "|H| is not the Gram square of |d|" if signless else "H is not the Gram square of d"
    assert _supersymmetry_line(out) == f"FAIL supersymmetry    {part}; {_WHEEL6_KERNELS}"


_UNDECIDED_D = "rank of d undecided; kernels None, None (signless 0, 5), Betti 1, 6"
_UNDECIDED_ABS_D = "rank of |d| undecided; kernels 1, 6 (signless None, None), Betti 1, 6"


@pytest.mark.parametrize(
    "mutation, detail",
    [
        (lambda real: stray_forest_entry(real, False), _UNDECIDED_D),
        (lambda real: stray_forest_entry(real, True), _UNDECIDED_ABS_D),
        (lambda real: zeroed_forest_pivot(real, False), _UNDECIDED_D),
        (lambda real: zeroed_forest_pivot(real, True), _UNDECIDED_ABS_D),
        (resigned_odd_rows, _UNDECIDED_ABS_D),
        (broken_colouring, _UNDECIDED_ABS_D),
    ],
    ids=[
        "stray_forest_entry-signed",
        "stray_forest_entry-signless",
        "zeroed_forest_pivot-signed",
        "zeroed_forest_pivot-signless",
        "resigned_odd_rows",
        "broken_colouring",
    ],
)
def test_verify_fails_supersymmetry_on_a_broken_rank_certificate(
    capsys, monkeypatch, mutation, detail
):
    # a faulty forest row, pivot, odd row or colouring leaves a rank
    # undecided: supersymmetry fails alone, with exit 1 and no traceback,
    # and its detail names the undecided rank
    monkeypatch.setattr(operators, "forest_rank", mutation(operators.forest_rank))
    code, out, err = run(capsys, "verify", "wheel:6")
    assert (code, err) == (1, "first failing check: supersymmetry\n")
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == ["supersymmetry"]
    assert _supersymmetry_line(out) == f"FAIL supersymmetry    {detail}"


def test_verify_names_kernels_that_miss_the_betti_numbers(capsys, monkeypatch):
    monkeypatch.setattr(operators, "betti_numbers", lambda g: (2, 6))
    code, out, _ = run(capsys, "verify", "wheel:6")
    assert code == 1
    assert _supersymmetry_line(out) == (
        "FAIL supersymmetry    kernels differ from the Betti numbers; "
        "kernels 1, 6 (signless 0, 5), Betti 2, 6"
    )


@pytest.mark.parametrize("field", [(), ("--field", "7")], ids=["integers", "field"])
def test_verify_runs_all_seven_checks_at_24840_cells_without_a_dense_view(capsys, monkeypatch, field):
    # bary:grid:60,60: every check reads the nonzeros, supersymmetry's ranks
    # and the residual mod 7 included; a dense list of rows or a dense array
    # of any matrix would be 24840^2 entries, so building one fails the test
    def refuse(self, *args):
        raise AssertionError(f"dense view of a {self.shape} matrix")

    monkeypatch.setattr(exact.IntMatrix, "_dense_rows", refuse)
    monkeypatch.setattr(exact.IntMatrix, "to_array", refuse)
    code, out, err = run(capsys, "verify", "bary:grid:60,60", *field)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    checks = 8 if field else 7
    assert len(lines) == checks + 1 and all(line.startswith("ok ") for line in lines[:checks])
    assert lines[-1] == f"bary(grid60x60): {checks}/{checks} checks pass"


VERIFY_GOLDEN = json.loads((DATA / "verify_golden.json").read_text())


@pytest.mark.parametrize("case", VERIFY_GOLDEN, ids=[case["command"] for case in VERIFY_GOLDEN])
def test_verify_and_product_match_golden_output(capsys, case):
    # tests/data/verify_golden.json holds the size and SHA-256 of the stdout
    # of one verify per graph family (three with --field) and three products,
    # as printed when green-star ran Gauss-Jordan elimination and reciprocity
    # took the charpoly of the dense L @ L; it now reads the Schur certificate
    _matches_golden(capsys, case)


BOUNDS_GOLDEN = json.loads((DATA / "bounds_golden.json").read_text())


@pytest.mark.parametrize("case", BOUNDS_GOLDEN, ids=[case["command"].split()[1] for case in BOUNDS_GOLDEN])
def test_bounds_matches_golden_output(capsys, case):
    # tests/data/bounds_golden.json holds the size and SHA-256 of the stdout
    # of bounds in each format over the 55 reference-table graphs, then a
    # disconnected graph (gnm:12,8:seed=3), a regular one (complete:9) and
    # one without edges (path:1), whose error row makes the exit 1
    _matches_golden(capsys, case)
    assert case["command"].split()[3:58] == [spec for table in REFERENCE_TABLES.values() for spec, _ in table]
