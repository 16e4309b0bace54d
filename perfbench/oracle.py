"""Independent checks of every operation's output.

Nothing here calls connlab's operator, exact or spectra code: the connection
matrix, the signless Hodge operator and the Kirchhoff matrices are rebuilt
from the graph's edge list with numpy, and the CLI output is parsed as text.
Each check returns a list of problems; an empty list means the output is
correct.  The checks run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import random

import numpy as np

TABLE_TOLERANCE = 1e-3
# CSV cells carry six significant digits
CSV_RTOL = 1e-5
VERIFY_CHECKS = (
    "unimodularity", "hydrogen", "green-star", "energy", "traces", "reciprocity", "supersymmetry",
)
BOUNDS_COLUMNS = ["name", "rho", "rho_abs", "dual_vertex", "walk3", "bhs", "lsc"]
SPOT_CHECKS = 4


# ---------------------------------------------------------------------------
# operators rebuilt from the edge list


def cells_of(n: int, edges) -> list[tuple[int, ...]]:
    """Cells in connlab's documented order: vertices, then sorted edges."""
    return [(i,) for i in range(n)] + sorted(tuple(sorted(e)) for e in edges)


def connection(n: int, edges) -> np.ndarray:
    """L(x, y) = 1 iff the cells x and y share a vertex."""
    cells = cells_of(n, edges)
    member = np.zeros((len(cells), n), dtype=np.int64)
    for i, cell in enumerate(cells):
        member[i, list(cell)] = 1
    return (member @ member.T > 0).astype(np.int64)


def hodge_signless(n: int, edges) -> np.ndarray:
    """|H| = |D|^2 with |D| = [[0, |d0|^T], [|d0|, 0]] from the signless incidence."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    d0 = np.zeros((len(edges), n), dtype=np.int64)
    for k, (a, b) in enumerate(edges):
        d0[k, a] = d0[k, b] = 1
    size = n + len(edges)
    dirac = np.zeros((size, size), dtype=np.int64)
    dirac[n:, :n] = d0
    dirac[:n, n:] = d0.T
    return dirac @ dirac


def kirchhoff(n: int, edges, sign: int) -> np.ndarray:
    """Degree matrix plus sign times adjacency (sign -1: Kirchhoff, +1: signless)."""
    k = np.zeros((n, n))
    for a, b in edges:
        k[a, a] += 1
        k[b, b] += 1
        k[a, b] += sign
        k[b, a] += sign
    return k


def components(n: int, edges) -> list[list[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def neighbours(n: int, edges) -> list[list[int]]:
    """Row supports of L: each cell with every cell it intersects."""
    cells = cells_of(n, edges)
    touching: list[list[int]] = [[] for _ in range(n)]
    for i, cell in enumerate(cells):
        for v in cell:
            touching[v].append(i)
    return [sorted({j for v in cell for j in touching[v]}) for cell in cells]


# ---------------------------------------------------------------------------
# certify-ladder


def check_certify(n: int, edges, connection_rows, green_rows, habs_rows, summary: dict) -> list[str]:
    """The library path: L, the certified green, |H| and the derived scalars."""
    problems = []
    chi = n - len(edges)
    L = connection(n, edges)
    try:
        got_L, g, habs = (np.array(rows, dtype=np.int64) for rows in (connection_rows, green_rows, habs_rows))
    except OverflowError:
        return ["an operator entry does not fit in int64"]
    if got_L.shape != L.shape or not np.array_equal(got_L, L):
        problems.append("L differs from the edge-list connection matrix")
        return problems
    if g.shape != L.shape or not np.array_equal(L @ g, np.eye(len(L), dtype=np.int64)):
        problems.append("L @ g != I")
    want_habs = hodge_signless(n, edges)
    if habs.shape != want_habs.shape or not np.array_equal(habs, want_habs):
        problems.append("|H| differs from |D|^2 built from |d0|")
    elif g.shape == L.shape and not np.array_equal(L - g, want_habs):
        problems.append("L - g != |H|")
    if summary["residual"] != 0:
        problems.append(f"hydrogen residual {summary['residual']} != 0")
    if summary["det"] not in (-1, 1):
        problems.append(f"det L = {summary['det']}, not +-1")
    if summary["energy"] != chi or int(g.sum()) != chi:
        problems.append(f"sum g = {summary['energy']}, chi = {chi}")
    return problems


# ---------------------------------------------------------------------------
# verify-small


def check_verify(stdout: str, code: int, field: int | None) -> list[str]:
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"verify output is not JSON: {exc}"]
    names = [c["name"] for c in out["checks"]]
    want = list(VERIFY_CHECKS) + (["hydrogen-mod-p"] if field else [])
    problems = []
    if names != want:
        problems.append(f"verify ran checks {names}, expected {want}")
    failed = [c["name"] for c in out["checks"] if c["ok"] is not True]
    if failed or out["ok"] is not True:
        problems.append(f"verify checks not ok: {failed}")
    if code != 0:
        problems.append(f"verify exited {code}")
    return problems


def check_product(stdout: str, code: int, factors) -> list[str]:
    """factors: (n, edges) of A and B; energy must equal chi(A) chi(B)."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"product output is not JSON: {exc}"]
    (na, ea), (nb, eb) = factors
    problems = []
    chi = (na - len(ea)) * (nb - len(eb))
    if out["energy"] != chi:
        problems.append(f"product energy {out['energy']} != chi_A chi_B = {chi}")
    cells = (na + len(ea)) * (nb + len(eb))
    if out["cells"] != cells:
        problems.append(f"product has {out['cells']} cells, expected {cells}")
    if out["det"] not in (-1, 1) or not out["reciprocity_ok"]:
        problems.append("product det or reciprocity check failed")
    if code != 0:
        problems.append(f"product exited {code}")
    return problems


# ---------------------------------------------------------------------------
# bounds-table


def check_bounds(stdout: str, code: int, n: int, edges, reference) -> list[str]:
    """reference: the frozen six-column row from connlab.tables, or None."""
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != 2 or rows[0] != BOUNDS_COLUMNS:
        return [f"bounds CSV has shape {[len(r) for r in rows]}, expected header plus one row"]
    # connlab writes graph names unquoted, and names such as K3,3 or
    # gnm(20,50;7) contain commas, so the six numbers are read from the right
    try:
        rho, rho_abs, dual, walk3, bhs, lsc = (float(x) for x in rows[1][-6:])
    except ValueError as exc:
        return [f"bounds row is not numeric: {exc}"]
    problems = []
    want_rho = float(np.linalg.eigvalsh(kirchhoff(n, edges, -1))[-1])
    want_abs = float(np.linalg.eigvalsh(kirchhoff(n, edges, +1))[-1])
    for label, got, want in (("rho", rho, want_rho), ("rho_abs", rho_abs, want_abs)):
        if abs(got - want) > CSV_RTOL * max(1.0, abs(want)):
            problems.append(f"{label} = {got}, numpy eigvalsh gives {want}")
    bounds = {"dual_vertex": dual, "walk3": walk3, "bhs": bhs}
    # the lsc bound holds only when no component is regular
    degrees = np.bincount(np.array(edges, dtype=np.int64).ravel(), minlength=n)
    if all(len(set(degrees[c])) > 1 for c in components(n, edges)):
        bounds["lsc"] = lsc
    tol = CSV_RTOL * max(1.0, rho)
    problems += [f"bound {k} = {v} is below rho = {rho}" for k, v in bounds.items() if v < rho - tol]
    if reference is not None:
        got = (rho, rho_abs, dual, walk3, bhs, lsc)
        err = max(abs(a - b) for a, b in zip(got, reference))
        if err > TABLE_TOLERANCE:
            problems.append(f"reference row off by {err:.3g} > {TABLE_TOLERANCE}")
    if code != 0:
        problems.append(f"bounds exited {code}")
    return problems


# ---------------------------------------------------------------------------
# dynamics


def _trajectory(stdout: str) -> tuple[list[int], list[str]]:
    """Times and raw lines of JSONL output; only the "n" prefix is parsed."""
    lines = stdout.splitlines()
    times = [json.loads(line[: line.index(",")] + "}")["n"] for line in lines]
    return times, lines


def check_walk(stdout: str, code: int, n: int, edges, steps: int, field: int | None, seed: int) -> list[str]:
    """walk (field None) or automaton (field p): psi(t+1) = L psi(t), spot-checked."""
    problems = []
    times, lines = _trajectory(stdout)
    if times != list(range(-steps, steps + 1)):
        return [f"trajectory times are not -{steps}..{steps}"]
    rows = neighbours(n, edges)
    start = json.loads(lines[steps])["state"]
    if start != [1] + [0] * (len(rows) - 1):
        problems.append("psi(0) is not the first unit vector")
    if field is not None:
        for line in lines:
            if any(not 0 <= x < field for x in json.loads(line)["state"]):
                problems.append(f"automaton state outside [0, {field})")
                break
    rng = random.Random(seed)
    for t in rng.sample(range(-steps, steps), min(SPOT_CHECKS, 2 * steps)):
        psi = json.loads(lines[t + steps])["state"]
        nxt = json.loads(lines[t + steps + 1])["state"]
        want = [sum(psi[j] for j in row) for row in rows]
        if field is not None:
            want = [x % field for x in want]
        if nxt != want:
            problems.append(f"psi({t + 1}) != L psi({t})")
    if code != 0:
        problems.append(f"round trip or identity check failed: exit {code}")
    return problems


def check_newton(stdout: str, code: int, n: int, edges) -> tuple[list[str], int]:
    """Trees converge (exit 0); cycle-type graphs abort with a singular Jacobian (exit 1).

    Returns the problems and the iteration count the solver reported.
    """
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"newton output is not JSON: {exc}"], 0
    forest = len(edges) == n - len(components(n, edges))
    if forest:
        ok = code == 0 and out["converged"] is True
        want = "convergence"
    else:
        ok = code == 1 and out.get("singular_jacobian") is True
        want = "singular_jacobian"
    problems = [] if ok else [f"newton expected {want}, got exit {code}: converged={out['converged']}"]
    return problems, int(out["iterations"])
