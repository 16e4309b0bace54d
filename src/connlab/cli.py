"""Command-line workbench: verify identities, print tables, run dynamics.

Subcommands: verify, bounds, spectrum, walk, automaton, newton, product,
report.  Graphs are given either as a path to a text file or as an inline
generator spec like "cycle:8", "grid:6,3", "gnm:20,50:seed=7", or
"bary:star:4".  The parsed argument namespace is the run configuration;
every command is deterministic given its flags, so identical invocations
produce byte-identical output.

Exit codes: 0 success, 1 a check failed, 2 a usage error (a bad flag, state
or graph spec or file, or a run whose array would not fit in memory), which
prints one line "error: ..." on stderr and no traceback.

The subcommands live in one table, _COMMANDS: name, help text, the shared
flags (--format, --seed, --dump) that its handler reads, and its own
arguments; subcommand NAME runs cmd_NAME.  A command takes only the shared
flags its entry names, so any other one is a usage error, reported with its
value (_unread_shared).  When argv names
its subcommand after nothing but whole shared flags, main builds that
command's flat parser and parses argv with the name taken out, since
building parsers is a large share of a small bounds call.  Otherwise (no
subcommand, an unknown one, or a help flag or an abbreviation before it) it
builds the connlab parser, which has no flags of its own, with all eight
subparsers, so --help and an invalid-choice error still list every
subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dynamics import jacobi_residual, orbit
from .exact import IntMatrix, dump_matrix, field_reduce, is_prime
from .graphs import Graph, GraphError, from_spec, load_graph
from .newton import NewtonConfig, NonConvergenceError, SingularJacobianError, solve_perturbed
from .operators import (
    OperatorBundle,
    SupersymmetryReport,
    bundle_for,
    hydrogen_residual,
    supersymmetry_report,
    trace_report,
)
from .products import product_checks
from .spectra import CSV_COLUMNS, BoundsReport, bounds_report, eig_sym
from .tables import (
    RANDOM_ANALOGUES,
    REFERENCE_TABLES,
    TABLE_TITLES,
    row_max_error,
)

TABLE_TOLERANCE = 1e-3


class UsageError(ValueError):
    """Bad command-line input found after parsing."""


# ---------------------------------------------------------------------------
# small output helpers


def _fmt(x: float) -> str:
    """Six significant digits, the precision the reference tables use."""
    return f"{x:.6g}"


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _print_csv(rows: Sequence[Sequence], header: Sequence[str]) -> None:
    """One row per line; a field holding a comma, quote or newline is quoted."""
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(header)
    out.writerows([str(x) for x in row] for row in rows)


def _print_pretty(rows: Sequence[Sequence], header: Sequence[str]) -> None:
    cells = [list(map(str, header))] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    for r, row in enumerate(cells):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if r == 0:
            print("  ".join("-" * w for w in widths))


def _load_graph_arg(arg: str) -> Graph:
    if os.path.exists(arg):
        try:
            g, _ = load_graph(arg)
        except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable or not UTF-8
            raise UsageError(f"cannot read graph file {arg!r}: {exc}") from None
        if not g.name:
            g = g.with_name(os.path.basename(arg))
        return g
    return from_spec(arg)


def _within_memory(rows: int, cols: int, what: str) -> None:
    """Refuse, as a usage error, a rows x cols array of 8-byte entries (int64,
    float64 or object pointers) larger than physical memory, before numpy is
    asked for it.  A run that passes may still run out, as it holds more
    than that one array; MemoryError is left uncaught, since on a machine
    that overcommits the allocation succeeds and the process is killed
    later."""
    need = 8 * rows * cols
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise UsageError(
            f"{what} needs a {rows} x {cols} array of {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of memory"
        )


_DUMPABLE: dict[str, Callable[[OperatorBundle], IntMatrix]] = {
    "L": lambda b: b.connection,
    "g": lambda b: b.green,
    "D": lambda b: b.dirac,
    "H": lambda b: b.hodge,
    "Habs": lambda b: b.hodge_signless,
    "H0": lambda b: b.hodge0,
    "H0abs": lambda b: b.hodge0_signless,
    "H1": lambda b: b.hodge1,
    "H1abs": lambda b: b.hodge1_signless,
    "d0": lambda b: b.incidence,
    "kirchhoff": lambda b: b.kirchhoff,
}


def _maybe_dump(args, bundle: OperatorBundle) -> None:
    if args.dump:
        sys.stdout.write(dump_matrix(_DUMPABLE[args.dump](bundle)))


# ---------------------------------------------------------------------------
# verify


def _verify_checks(bundle: OperatorBundle, p: int | None = None) -> list[tuple[str, bool, str]]:
    """The seven identity checks run per graph, and an eighth mod p when p
    is given: the integer hydrogen residual, built once, reduced mod p."""
    results: list[tuple[str, bool, str]] = []
    n = bundle.size

    try:
        d = bundle.connection_det
        detail = f"det L = {d}"
    except ArithmeticError as exc:  # no identity vertex block or no diagonal S
        d, detail = None, f"no Schur det: {exc}"
    results.append(("unimodularity", d in (-1, 1), detail))

    hydrogen = hydrogen_residual(bundle)
    residual = hydrogen.max_abs()
    results.append(("hydrogen", residual == 0, f"max |L - L^-1 - |H|| = {residual}"))

    star = bundle.green
    try:
        same = bundle.schur_inverse() == star
    except (ValueError, ArithmeticError):
        same = False
    results.append(
        ("green-star", same, "star formula matches the elimination inverse entrywise")
    )

    energy = star.entry_sum()
    chi = bundle.complex.v - bundle.complex.e
    results.append(("energy", energy == chi, f"sum g = {energy}, chi = {chi}"))

    tr = trace_report(bundle)
    results.append(("traces", tr.ok, f"tr L = {tr.connection_trace}, tr |H| = {tr.hodge_signless_trace}"))

    sign = bundle.reciprocity_sign
    want = 1 if n % 2 == 0 else -1
    results.append(
        ("reciprocity", sign == want, f"charpoly(L^2) reciprocal with sign {sign}")
    )

    ss = supersymmetry_report(bundle)
    results.append(("supersymmetry", ss.ok, _supersymmetry_detail(ss)))
    if p is not None:
        # g is certified by L g = I over Z, so g mod p is L^-1 over F_p
        ok = field_reduce(hydrogen, p).is_zero()
        results.append(("hydrogen-mod-p", ok, f"L - L^-1 = |H| over F_{p}"))
    return results


def _supersymmetry_detail(ss: SupersymmetryReport) -> str:
    """The passing statement, or each failing part of the report and the
    kernel counts it read."""
    if ss.ok:
        return "H0 and H1 share their nonzero spectra; kernels match Betti numbers"
    off_betti = ss.kernel0 is not None and (ss.kernel0, ss.kernel1) != (ss.betti0, ss.betti1)
    parts = [
        part
        for failed, part in (
            (ss.kernel0 is None, "rank of d undecided"),
            (ss.signless_kernel0 is None, "rank of |d| undecided"),
            (not ss.nonzero_match, "H is not the Gram square of d"),
            (not ss.signless_nonzero_match, "|H| is not the Gram square of |d|"),
            (off_betti, "kernels differ from the Betti numbers"),
        )
        if failed
    ]
    return "; ".join(parts) + (
        f"; kernels {ss.kernel0}, {ss.kernel1} (signless {ss.signless_kernel0}, "
        f"{ss.signless_kernel1}), Betti {ss.betti0}, {ss.betti1}"
    )


def cmd_verify(args) -> int:
    g = _load_graph_arg(args.graph)
    bundle = bundle_for(g)
    checks = _verify_checks(bundle, args.field)
    failed = [name for name, ok, _ in checks if not ok]
    if args.format == "json":
        _print_json(
            {
                "graph": g.name,
                "ok": not failed,
                "checks": [
                    {"name": name, "ok": ok, "detail": detail}
                    for name, ok, detail in checks
                ],
            }
        )
    elif args.format == "csv":
        _print_csv([(name, ok, detail) for name, ok, detail in checks], ("check", "ok", "detail"))
    else:
        for name, ok, detail in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name:16s} {detail}")
        print(f"{g.name}: {len(checks) - len(failed)}/{len(checks)} checks pass")
    _maybe_dump(args, bundle)
    if failed:
        print(f"first failing check: {failed[0]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# bounds


def _bounds_rows(reports: Sequence[BoundsReport]) -> list[tuple]:
    return [(r.graph_name, *map(_fmt, r.row())) for r in reports]


def cmd_bounds(args) -> int:
    reports = []
    failures = []
    first = None  # the first row's bundle, which --dump prints from
    for spec in args.graphs:
        try:
            g = _load_graph_arg(spec)
        except Exception as exc:  # a graph that fails to load fails its row alone
            failures.append((spec, str(exc)))
            continue
        _within_memory(g.n, g.n, f"each Kirchhoff spectrum of {spec}")
        try:
            bundle = bundle_for(g)
            reports.append(bounds_report(bundle))
        except Exception as exc:  # keep remaining rows alive per contract
            failures.append((spec, str(exc)))
            continue
        if first is None:
            first = bundle
    rows = _bounds_rows(reports)
    if args.format == "json":
        _print_json(
            {
                "columns": list(CSV_COLUMNS),
                "rows": [dict(zip(CSV_COLUMNS, row)) for row in rows],
                "errors": [{"graph": s, "error": e} for s, e in failures],
            }
        )
    elif args.format == "csv":
        _print_csv(rows, CSV_COLUMNS)
    else:
        _print_pretty(rows, CSV_COLUMNS)
    for spec, err in failures:
        print(f"error: {spec}: {err}", file=sys.stderr)
    if not failures:
        _maybe_dump(args, first)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    g = _load_graph_arg(args.graph)
    bundle = bundle_for(g)
    m = _DUMPABLE[args.operator](bundle)
    _within_memory(m.nrows, m.ncols, f"the spectrum of {args.operator}")
    spec = eig_sym(m)
    payload = {
        "graph": g.name,
        "operator": args.operator,
        "matrix_dim": spec.matrix_dim,
        "tolerance_achieved": spec.tolerance_achieved,
        "eigenvalues": list(spec.eigenvalues),
    }
    if args.operator == "L":
        squares = sorted(x * x for x in spec.eigenvalues)
        inverted = sorted(1.0 / s for s in squares)
        payload["inversion_pairing_residual"] = max(
            abs(a - b) for a, b in zip(squares, inverted)
        )
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([(i, v) for i, v in enumerate(spec.eigenvalues)], ("index", "eigenvalue"))
    else:
        print(f"{g.name} {args.operator}: {spec.matrix_dim} eigenvalues")
        print(" ".join(_fmt(v) for v in spec.eigenvalues))
        if "inversion_pairing_residual" in payload:
            print(f"lambda^2 <-> 1/lambda^2 pairing residual: {payload['inversion_pairing_residual']:.3e}")
    _maybe_dump(args, bundle)
    return 0


# ---------------------------------------------------------------------------
# walk and automaton


@contextlib.contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift Python's int/str conversion digit limit, where it has one, for
    the duration of the block.  Exact states outgrow it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


_STATE_ECHO = 40  # characters of a malformed --state quoted in its error


def _parse_state(text: str | None, n: int) -> tuple[int, ...]:
    if text is None:
        return tuple([1] + [0] * (n - 1))
    try:
        with _unlimited_int_digits():
            values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        shown = text if len(text) <= _STATE_ECHO else text[:_STATE_ECHO] + "..."
        raise UsageError(f"state {shown!r} is not a comma-separated list of integers") from None
    if len(values) != n:
        raise UsageError(f"state has {len(values)} entries, expected {n}")
    return values


def _print_states(states: Iterable[tuple[int, Sequence[int]]]) -> None:
    """One line {"n":n,"state":[...]} per (time, state): the bytes of
    json.dumps with compact separators, written past the digit limit.  Each
    line is written as soon as it is formatted, by one %d format string per
    state length."""
    write = sys.stdout.write
    formats: dict[int, str] = {}
    with _unlimited_int_digits():
        for n, state in states:
            k = len(state)
            if k not in formats:
                formats[k] = '{"n":%d,"state":[' + ",".join(["%d"] * k) + "]}\n"
            write(formats[k] % (n, *state))


def _print_orbit(times: range, rows: np.ndarray) -> None:
    """The states of an orbit, one per row, at the given times, in the
    bytes of _print_states.  An int64 orbit whose values, reduced mod p,
    are all below its number of entries formats each value once into a
    table of 0 up to the largest and gathers the rows' texts from it.  Any
    other orbit goes through _print_states.  Either way rows become lists
    64 at a time: one tolist per row costs a call each, one for the whole
    orbit holds every state twice."""
    chunks = range(0, len(rows), 64)
    top = None if rows.dtype == object else int(rows.max(initial=0))
    if top is None or top >= rows.size:
        _print_states(zip(times, (row for k in chunks for row in rows[k : k + 64].tolist())))
        return
    table = np.array([str(x) for x in range(top + 1)], dtype=object)
    write = sys.stdout.write
    for k in chunks:
        for n, texts in zip(times[k : k + 64], table[rows[k : k + 64]].tolist()):
            write('{"n":%d,"state":[%s]}\n' % (n, ",".join(texts)))


def _steps_back(g: IntMatrix, forward: np.ndarray) -> bool:
    """Whether g psi(k) = psi(k - 1) for every k >= 1 of the forward states
    psi(0), psi(1), ... (the rows of forward), mod p for a FieldMatrix g,
    which implies g^N psi(N) = psi(0).  The states go through g as blocks
    of columns, sized so that the gathered terms, nnz(g) per state, never
    outnumber the entries of forward."""
    block = max(1, forward.size // max(1, g.nnz))
    for k in range(1, len(forward), block):
        stop = min(k + block, len(forward))
        if not np.array_equal(g.step(forward[k:stop].T), forward[k - 1 : stop - 1].T):
            return False
    return True


def _run_orbit(args, p: int | None) -> int:
    """walk (p None) and automaton (mod p): print the orbit of the state,
    one line per time, after checking the round trip; then check the
    Jacobi residual over Z, or the hydrogen identity mod p."""
    g = _load_graph_arg(args.graph)
    bundle = bundle_for(g)
    psi0 = _parse_state(args.state, bundle.size)
    n_min = -args.steps if args.reverse else 0
    _within_memory(args.steps - n_min + 1, bundle.size, "the orbit")
    traj = orbit(bundle, psi0, n_min, args.steps, p)
    # round trip: g psi(k) = psi(k - 1) for every forward step, so that a
    # wrong middle state fails here and not only at the closing check.  It
    # runs before the states print, so that its temporaries and the printed
    # text are never held at once
    green = bundle.green if p is None else bundle.reduced("green", p)
    round_trip = not args.reverse or _steps_back(green, traj.states[args.steps :])
    _print_orbit(traj.times, traj.states)
    if not round_trip:
        print("round trip failed", file=sys.stderr)
        return 1
    if p is not None:
        if not field_reduce(hydrogen_residual(bundle), p).is_zero():
            print(f"hydrogen identity failed mod {p}", file=sys.stderr)
            return 1
    elif args.steps >= 2 and args.reverse:
        residual = jacobi_residual(traj, bundle.dirac_signless)
        if residual != 0:
            print(f"jacobi residual nonzero: {residual}", file=sys.stderr)
            return 1
    _maybe_dump(args, bundle)
    return 0


def cmd_walk(args) -> int:
    return _run_orbit(args, None)


def cmd_automaton(args) -> int:
    return _run_orbit(args, args.field)


# ---------------------------------------------------------------------------
# newton


def cmd_newton(args) -> int:
    g = _load_graph_arg(args.graph)
    bundle = bundle_for(g)
    # one Jacobian column per upper-triangle nonzero of L, whose diagonal is full
    m = (bundle.connection.nnz + bundle.size) // 2
    _within_memory(m, m, "the Newton Jacobian")
    cfg = NewtonConfig(tol=args.tol, max_iter=args.max_iter)
    payload: dict = {"graph": g.name, "eps": args.eps, "seed": args.seed}
    code = 0
    try:
        result, support = solve_perturbed(bundle, args.eps, args.seed, cfg)
        payload.update(
            converged=result.converged,
            iterations=result.iterations,
            residual=result.residual,
            support_violation_max=max(
                support.off_pattern_matrix_max, support.off_pattern_inverse_max
            ),
            off_pattern_matrix_max=support.off_pattern_matrix_max,
            off_pattern_inverse_max=support.off_pattern_inverse_max,
            off_inverse_support_max=support.off_inverse_support_max,
            residual_history=list(result.residual_history),
        )
    except SingularJacobianError as exc:
        payload.update(
            converged=False,
            iterations=exc.iteration,
            residual=None,
            support_violation_max=None,
            singular_jacobian=True,
            sigma_min=exc.sigma_min,
            sigma_max=exc.sigma_max,
        )
        code = 1
    except NonConvergenceError as exc:
        payload.update(
            converged=False,
            iterations=exc.result.iterations,
            residual=exc.result.residual,
            support_violation_max=None,
            residual_history=list(exc.result.residual_history),
        )
        code = 1
    _print_json(payload)
    return code


# ---------------------------------------------------------------------------
# product


def cmd_product(args) -> int:
    a = _load_graph_arg(args.graph_a)
    b = _load_graph_arg(args.graph_b)
    cells = (a.n + a.e) * (b.n + b.e)
    _within_memory(cells, cells, "each product spectrum")
    rep = product_checks(bundle_for(a), bundle_for(b))
    _print_json(
        {
            "factors": [a.name, b.name],
            "cells": rep.size,
            "energy": rep.energy_value,
            "energy_expected": rep.energy_expected,
            "energy_ok": rep.energy_ok,
            "charpoly_reciprocal_sign": rep.charpoly_sign,
            "reciprocity_ok": rep.reciprocity_ok,
            "hydrogen_residual_max": rep.hydrogen_residual_max,
            "hydrogen_fails_as_expected": rep.hydrogen_fails,
            "det": rep.det_value,
            "multiplicativity_error": rep.multiplicativity_error,
            "additivity_error": rep.additivity_error,
        }
    )
    ok = rep.energy_ok and rep.reciprocity_ok and rep.det_ok
    ok = ok and rep.multiplicativity_error < 1e-8 and rep.additivity_error < 1e-8
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# report


def _report_deterministic() -> tuple[list[dict], bool]:
    sections = []
    all_ok = True
    for family, table in REFERENCE_TABLES.items():
        rows = []
        for spec, expected in table:
            rep = bounds_report(bundle_for(from_spec(spec)))
            got = rep.row()
            err = row_max_error(got, expected)
            ok = err < TABLE_TOLERANCE
            all_ok = all_ok and ok
            rows.append(
                {
                    "name": spec,
                    "computed": [float(_fmt(x)) for x in got],
                    "reference": list(expected),
                    "max_error": err,
                    "ok": ok,
                }
            )
        sections.append({"family": family, "title": TABLE_TITLES[family], "rows": rows})
    return sections, all_ok


def _report_random(seed: int) -> list[dict]:
    sections = []
    for label, base_spec, count in RANDOM_ANALOGUES:
        rows = []
        sums = [0.0] * 6
        for i in range(count):
            spec = f"{base_spec}:seed={seed + i}"
            rep = bounds_report(bundle_for(from_spec(spec)))
            got = rep.row()
            for c, x in enumerate(got):
                sums[c] += x
            rows.append({"name": spec, "computed": [float(_fmt(x)) for x in got]})
        sections.append(
            {
                "family": label,
                "rows": rows,
                "column_means": [float(_fmt(s / count)) for s in sums],
            }
        )
    return sections


def _report_sparse_random(seed: int) -> dict:
    """E(20, 0.1) experiment over 50 seeds: the dual-vertex bound beats 2d
    for most."""
    tighter = 0
    used = 0
    for i in range(50):
        g = from_spec(f"gnp:20,0.1:seed={seed + i}")
        if not g.edges:
            continue
        used += 1
        rep = bounds_report(bundle_for(g))
        if rep.bound_dual_vertex < rep.bound_trivial_2d:
            tighter += 1
    return {
        "trials": used,
        "dual_vertex_tighter": tighter,
        "majority": tighter * 2 > used,
        # bounds_report asserts soundness internally; reaching here means it held
        "soundness": True,
    }


def cmd_report(args) -> int:
    deterministic, det_ok = _report_deterministic()
    random_sections = _report_random(args.seed)
    sparse = _report_sparse_random(args.seed)
    payload = {
        "seed": args.seed,
        "tolerance": TABLE_TOLERANCE,
        "deterministic_ok": det_ok,
        "deterministic": deterministic,
        "random_analogues": random_sections,
        "sparse_random_experiment": sparse,
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        header = ("family", "name") + CSV_COLUMNS[1:] + tuple(
            f"ref_{c}" for c in CSV_COLUMNS[1:]
        ) + ("ok",)
        rows = []
        for section in deterministic:
            for row in section["rows"]:
                rows.append(
                    (section["family"], row["name"])
                    + tuple(row["computed"])
                    + tuple(row["reference"])
                    + (row["ok"],)
                )
        for section in random_sections:
            for row in section["rows"]:
                rows.append(
                    (section["family"], row["name"])
                    + tuple(row["computed"])
                    + ("",) * 6
                    + ("",)
                )
        _print_csv(rows, header)
    else:
        for section in deterministic:
            print(f"\n== {section['title']} ==")
            table_rows = [
                (
                    row["name"],
                    " ".join(_fmt(x) for x in row["computed"]),
                    " ".join(_fmt(x) for x in row["reference"]),
                    "ok" if row["ok"] else "MISMATCH",
                )
                for row in section["rows"]
            ]
            _print_pretty(table_rows, ("graph", "computed", "reference", "status"))
        for section in random_sections:
            print(f"\n== {section['family']} (seed-stamped analogue) ==")
            table_rows = [
                (row["name"], " ".join(_fmt(x) for x in row["computed"]))
                for row in section["rows"]
            ]
            _print_pretty(table_rows, ("graph", " ".join(CSV_COLUMNS[1:])))
            print("column means: " + " ".join(str(x) for x in section["column_means"]))
        print(
            f"\nsparse random experiment: dual vertex tighter than 2d on "
            f"{sparse['dual_vertex_tighter']}/{sparse['trials']} seeds "
            f"(majority: {sparse['majority']}, soundness: {sparse['soundness']})"
        )
        print(f"deterministic tables match: {det_ok}")
    return 0 if det_ok and sparse["majority"] else 1


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _field_prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    try:
        if is_prime(p):
            return p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"{p} is not a prime")


def _count(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if k < 0:
        raise argparse.ArgumentTypeError(f"{k} is negative")
    return k


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text} is not finite")
    return x


def _eps(text: str) -> float:
    x = _finite(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return x


def _tol(text: str) -> float:
    x = _finite(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return x


_STATE_HELP = "comma-separated initial state (default: unit vector)"

# a token argparse reads as a negative number, not as a flag
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

# the flags more than one command reads, each given only to the commands
# whose _COMMANDS entry names it
_SHARED: dict[str, dict] = {
    "--format": {"choices": ("json", "csv", "pretty"), "default": "pretty"},
    "--seed": {"type": int, "default": 0},
    "--dump": {"metavar": "OPERATOR", "choices": sorted(_DUMPABLE), "help": "print the named operator matrix"},
}

# name: (help, the _SHARED flags its handler reads, its own arguments, each
# a flag or positional name with its add_argument keywords); the command
# runs cmd_<name>
_COMMANDS: dict[str, tuple[str, tuple[str, ...], dict[str, dict]]] = {
    "verify": (
        "run the exact identity checks on one graph",
        ("--format", "--dump"),
        {
            "graph": {},
            "--field": {"type": _field_prime, "help": "also check the identity mod this prime"},
        },
    ),
    "bounds": ("bound table rows for one or more graphs", ("--format", "--dump"), {"graphs": {"nargs": "+"}}),
    "spectrum": (
        "eigenvalues of one operator",
        ("--format", "--dump"),
        {
            "graph": {},
            "--operator": {"choices": sorted(_DUMPABLE.keys() - {"g", "d0", "kirchhoff"}), "default": "L"},
        },
    ),
    "walk": (
        "exact two-sided walk, one JSON line per time",
        ("--dump",),
        {
            "graph": {},
            "--steps": {"type": _count, "default": 6},
            "--reverse": {"action": "store_true", "help": "also walk backward and check the round trip"},
            "--state": {"help": _STATE_HELP},
        },
    ),
    "automaton": (
        "reversible walk over a prime field",
        ("--dump",),
        {
            "graph": {},
            "--field": {"type": _field_prime, "required": True},
            "--steps": {"type": _count, "default": 6},
            "--reverse": {"action": "store_true"},
            "--state": {"help": _STATE_HELP},
        },
    ),
    "newton": (
        "solve the perturbed relation K = L - 1/L",
        ("--seed",),
        {
            "graph": {},
            "--eps": {"type": _eps, "default": 0.01},
            "--tol": {"type": _tol, "default": 1e-10},
            "--max-iter": {"type": _count, "default": 50},
        },
    ),
    "product": ("strong-product checks for two graphs", (), {"graph_a": {}, "graph_b": {}}),
    "report": ("regenerate every reference table", ("--format", "--seed"), {}),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    """The shared flags that command name reads, then its own arguments,
    from _COMMANDS, in the order that help and an ambiguous-option error
    list them."""
    _, shared, arguments = _COMMANDS[name]
    for flag, options in ({flag: _SHARED[flag] for flag in shared} | arguments).items():
        parser.add_argument(flag, **options)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The flat parser of the named command, which reads argv with the
    command name taken out; with no command, the connlab parser, which has
    no flags of its own, with every subcommand."""
    if command is not None:
        parser = _Parser(prog=f"connlab {command}")
        _add_command(parser, command)
        parser.set_defaults(command=command)
        return parser
    parser = _Parser(
        prog="connlab",
        description="Connection Laplacian workbench: exact identities, "
        "spectral bounds, reversible dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=text), name)
    return parser


def _command_named(argv: Sequence[str]) -> int | None:
    """The position of the subcommand argv runs, when only whole shared
    flags come before it.

    argparse takes the first positional token for the subcommand, so the name
    counts after --format, --seed and --dump with their values, spaced or
    after "=".  The command's flat parser reads them as if they followed the
    name, and refuses one that the command does not read.  Anything else
    first (a help flag, an abbreviation, a stray positional) gives None, and
    the full parser answers: its help and its invalid-choice error list all
    eight commands.
    """
    i = 0
    while i < len(argv) and argv[i] not in _COMMANDS:
        if argv[i] in _SHARED:
            i += 2
        elif argv[i].partition("=")[0] in _SHARED:
            i += 1
        else:
            return None
    return i if i < len(argv) else None


def _unread_shared(command: str, argv: list[str]) -> tuple[list[str], list[str]]:
    """(argv less the shared flags command does not read, those flags),
    each flag taken whole: with its "=" value, or with the next token
    unless that is a flag other than a negative number.  Tokens after "--"
    are positionals.

    The command's parser has no such flag, so argparse would report the
    flag alone and read its value as a positional, or as the graph."""
    unread = _SHARED.keys() - _COMMANDS[command][1]
    kept, taken = [], []
    i = 0
    while i < len(argv) and argv[i] != "--":
        token = argv[i]
        i += 1
        if token in unread:
            taken.append(token)
            if i < len(argv) and (argv[i][:1] != "-" or _NUMBER.match(argv[i])):
                taken.append(argv[i])
                i += 1
        elif token.partition("=")[0] in unread:
            taken.append(token)
        else:
            kept.append(token)
    return kept + argv[i:], taken


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; argv defaults to sys.argv[1:], as the console script
    passes it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    i = _command_named(argv)
    if i is None:
        args = build_parser().parse_args(argv)
    else:
        parser = build_parser(argv[i])
        rest, unread = _unread_shared(argv[i], argv[:i] + argv[i + 1 :])
        # a help flag exits inside parse_known_args, before any error
        args, extras = parser.parse_known_args(rest)
        if unread or extras:
            parser.error(f"unrecognized arguments: {' '.join(unread + extras)}")
    # looked up by name at each call, so that a wrapper bound over a cmd_*
    # function after import, such as a tracer's, sees the call
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (UsageError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
