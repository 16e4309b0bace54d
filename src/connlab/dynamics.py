"""Two-sided walks, Jacobi solutions, Perron limits, and the mod-p automaton.

The connection Laplacian L is unimodular, so the walk psi(n) = L^n psi runs
in both time directions with integer states and is reversible bit for bit.
Squaring the defining identity gives the discrete wave equation

    psi(n+2) - 2 psi(n) + psi(n-2) = |H|^2 psi(n)

whose residual this module evaluates exactly (it must be the zero integer).
Four parity-restricted branch families solve the same equation from a
quadruple of initial vectors.  On each time parity they span a subspace of
codimension dim ker|H| in the solutions there, and ker|H| is the +-1
eigenspace of L.  The missing solutions are the secular u(t) = t k for k in
ker|H|: L is +-1 on k, so each branch's part in ker|H| is constant on its
time parity.  Every solution is a sum of branches exactly when
ker|H| = 0; the tests pin the total deficiency, 2 mult(+-1), against a
dense rank.

Floating point appears only where growth is genuinely exponential: Perron
projection limits and the growth rate log rho(L).  Over a prime field
the walk becomes a reversible cellular automaton with purely periodic
orbits.

The walks, limits and rates here take an OperatorBundle, and the one
inverse they use is the bundle's green: the star formula, certified by
L @ g = I.  Every exact walk is one orbit array, a row per time: orbit
steps L and, for negative times, g with IntMatrix.step, a numpy gather and
segmented sum over the entries.  While both directions run, psi(k) and
psi(-k) are one state of diag(L, g), so one step serves two times.  It
runs on exact Python ints over Z and, reduced mod p, in int64 while the
entries allow it.  orbit returns the walk over Z and the automaton mod p
as a Trajectory, which holds the orbit array as its states, with no object
per time; a quaternion branch holds a copy of every other row of one.
The powers behind the Perron limits and the two-time product walk step a
block of states, one per column, with the same step, which is also how the
CLI checks the round trip g psi(k) = psi(k - 1) for every forward time in
a few block products.
The Jacobi residual takes |H| = |D|^2 as two such steps of the all-ones
|D| on blocks of a walk's states, forms every hydrogen defect, and reads
the residual off three consecutive defects only when one is nonzero.
Walks, the residual and the automaton form no dense matrix, and nothing
here eliminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import IntMatrix, block_diagonal
from .graphs import connected_components
from .operators import OperatorBundle
from .spectra import eig_sym


class DynamicsError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of a walk at the times of a range, possibly negative: row k
    of the array states, exact integers or residues mod p, is the state at
    times[k].

    Full walks record every time in range and step by one application of L
    (or its exact inverse, for negative times).  Branch solutions of the
    second-order equation record a single parity class, every other time,
    and step by L^2 or L^-2.
    """

    states: np.ndarray
    times: range

    def __getitem__(self, n: int) -> tuple[int, ...]:
        return tuple(self.states[self.times.index(n)].tolist())


# ---------------------------------------------------------------------------
# exact walks and the Jacobi equation


def orbit(
    bundle: OperatorBundle,
    start: Sequence[int],
    n_min: int,
    n_max: int,
    p: int | None = None,
) -> Trajectory:
    """L^n start for n = n_min..n_max, as the rows of one array, the states
    of a Trajectory over range(n_min, n_max + 1); mod p when p is given,
    from start reduced mod p.

    Negative times step by the bundle's green, certified by L @ g = I; mod p
    both are reduced once per bundle (OperatorBundle.reduced), so a caller
    holding the bundle steps with the same matrices, and g mod p inverts
    L mod p.  While both directions have steps left, psi(k) and psi(-k) are
    one 2n-entry state, and one IntMatrix.step of diag(L, g) writes rows k
    and -k; the longer direction then steps on its own, so the orbit takes
    max(n_max, -n_min) steps.  Over Z the array holds Python ints; mod p it
    holds them if either stepped matrix's mat-vecs do, else int64, and so
    does the paired step.
    """
    n = bundle.size
    if len(start) != n:
        raise DynamicsError("state length does not match operator size")
    if n_min > 0 or n_max < 0:
        raise DynamicsError("time range must contain the initial time")

    def matrix(name: str) -> IntMatrix:
        return getattr(bundle, name) if p is None else bundle.reduced(name, p)

    # (matrix, direction, steps) for each direction that runs, or L alone
    # when the range is the start alone
    runs = [(matrix("connection"), 1, n_max)] if n_max or not n_min else []
    if n_min:
        runs.append((matrix("green"), -1, -n_min))
    dtypes = {m.step_dtype for m, _, _ in runs}
    rows = np.empty((n_max - n_min + 1, n), dtype=object if object in dtypes else np.int64)
    origin = -n_min
    rows[origin] = [int(x) if p is None else int(x) % p for x in start]
    paired = min(n_max, -n_min) if len(runs) == 2 else 0
    if paired:
        both = block_diagonal(runs[0][0], runs[1][0])
        x = np.concatenate((rows[origin], rows[origin]))
        for k in range(1, paired + 1):
            x = both.step(x)
            rows[origin + k], rows[origin - k] = x[:n], x[n:]
    for m, sign, steps in runs:
        x = rows[origin + sign * paired]
        for k in range(paired + 1, steps + 1):
            x = rows[origin + sign * k] = m.step(x)
    return Trajectory(rows, range(n_min, n_max + 1))


def _powers(bundle: OperatorBundle, k: int, block) -> np.ndarray:
    """L^k block for an n x m block of states, one per column, stepped over
    the nonzero entries of L, or of g for k < 0."""
    m = bundle.connection if k >= 0 else bundle.green
    for _ in range(abs(k)):
        block = m.step(block)
    return block


def jacobi_residual(t: Trajectory, dirac: IntMatrix) -> int:
    """max over n of |psi(n+2) - 2 psi(n) + psi(n-2) - |H|^2 psi(n)|_inf,
    where |H| = dirac @ dirac.

    Exactly zero for any exact walk trajectory; integer states give an
    integer residual so a pass is unambiguous.  |H|^2 psi(n) is never read
    off the trajectory itself: |H| is two steps of dirac on a block of
    states, one per column, sized like the CLI's round trip so that the
    gathered terms never outnumber the trajectory's entries.  On a walk
    (times of step 1) the hydrogen defect
    e(m) = |H| psi(m) - psi(m+1) + psi(m-1) is formed for every m with m-1
    and m+1 recorded.  Only if one is nonzero are the defects formed again
    and kept, and the difference at n taken as e(n-1) - e(n+1) - |H| e(n):
    expanding |H|^2 psi(n) = |H| e(n) + phi(n+1) - phi(n-1) with
    phi = |H| psi gives the same integer as applying |H| twice.  Branch
    trajectories of one time parity (times of step 2) take |H| twice.
    """
    block = max(1, t.states.size // max(1, dirac.nnz))

    def habs(x: np.ndarray) -> np.ndarray:
        """|H| x for a block of states, one per row."""
        return dirac.step(dirac.step(x.T)).T

    def sweep(x: np.ndarray, combine):
        """combine(x[j-1], x[j], x[j+1]) for j = 1..len(x) - 2, on the rows
        of a block of j at a time."""
        for a in range(1, len(x) - 1, block):
            b = min(a + block, len(x) - 1)
            yield combine(x[a - 1 : b - 1], x[a:b], x[a + 1 : b + 1])

    def defects():
        return sweep(t.states, lambda below, mid, above: habs(mid) - above + below)

    if t.times.step == 1 and len(t.times) >= 5:
        if not any(e.any() for e in defects()):
            return 0
        parts = sweep(np.concatenate(list(defects())), lambda below, mid, above: below - above - habs(mid))
    elif t.times.step == 2 and len(t.times) >= 3:
        parts = sweep(t.states, lambda below, mid, above: above - 2 * mid + below - habs(habs(mid)))
    else:
        raise DynamicsError("trajectory does not cover any n-2, n, n+2 triple")
    return max(int(np.abs(diff).max()) for diff in parts)


def quaternion_solution(
    bundle: OperatorBundle, quad: Sequence[Sequence[int]], n_steps: int
) -> tuple[Trajectory, Trajectory, Trajectory, Trajectory]:
    """Four branch solutions of the Jacobi equation from the initial data
    quad = (psi0, psi1, psi2, psi3).

    Branches 0 and 1 live on even times t = 2m, |m| <= n_steps, with states
    L^t psi0 and L^-t psi1; branches 2 and 3 live on odd times t = 2m+1 with
    states L^t psi2 and L^-t psi3.  Stepping any branch by two time units
    multiplies by L^2 or L^-2, so each branch satisfies the equation
    exactly (verify with jacobi_residual).
    """
    if len(quad) != 4:
        raise DynamicsError(f"initial data has {len(quad)} vectors, expected 4")

    def branch(psi: Sequence[int], t0: int, sign: int) -> Trajectory:
        # times t0 - 2 n_steps..t0 + 2 n_steps of t0's parity, a copy of
        # every other row of one orbit over a range that also holds time 0;
        # the state at t is L^(sign t) psi, the orbit's row at sign t
        lo, hi = min(0, t0 - 2 * n_steps), t0 + 2 * n_steps
        rows = orbit(bundle, psi, lo, hi).states if sign > 0 else orbit(bundle, psi, -hi, -lo).states[::-1]
        skip = (t0 - lo) % 2
        return Trajectory(rows[skip::2].copy(), range(lo + skip, hi + 1, 2))

    psi0, psi1, psi2, psi3 = quad
    return branch(psi0, 0, 1), branch(psi1, 0, -1), branch(psi2, 1, 1), branch(psi3, 1, -1)


# ---------------------------------------------------------------------------
# Perron projection limits


# Even-time powers L^2n taken by perron_limits, and the bound on the final
# forward residual.
PERRON_STEPS = 30
PERRON_TOL = 1e-6


@dataclass(frozen=True)
class PerronReport:
    """Limits of the normalized forward and backward even-time walks."""

    rho: float
    v: tuple[float, ...]
    w: tuple[float, ...]
    forward_residuals: tuple[float, ...]
    backward_residuals: tuple[float, ...]


def perron_limits(bundle: OperatorBundle) -> PerronReport:
    """Perron vector v and small-eigenvalue vector w with certified limits.

    v and w come from the dense symmetric eigendecomposition; the report
    then cross-checks them against exact big-integer powers: L^{2n} (and
    L^{-2n} = g^{2n}) normalized by rho^{2n} must converge to v (x) v and
    w (x) w in Frobenius norm, and the residual sequences are returned so
    the decrease is visible.  The forward residual at n = PERRON_STEPS is
    checked against PERRON_TOL.  Each power P is a power of L, so
    P L^2 = L^2 P, and the powers are stepped as n x n blocks from the
    identity over the entries of L or g.

    The eigenvalue nearest zero has magnitude exactly 1/rho (the spectrum
    of L^2 is closed under inversion), which is why one normalization
    constant serves both directions.
    """
    L = bundle.connection
    # L is irreducible exactly when the graph is connected
    if len(connected_components(bundle.graph)) > 1:
        raise DynamicsError("connection matrix is reducible; pass each connected component on its own")
    a = L.to_float()
    eigs, vecs = np.linalg.eigh((a + a.T) / 2.0)
    top = int(np.argmax(eigs))
    rho = float(eigs[top])
    v_arr = vecs[:, top]
    if v_arr.sum() < 0:
        v_arr = -v_arr
    small = int(np.argmin(np.abs(eigs)))
    w_arr = vecs[:, small]
    nz = next(i for i in range(len(w_arr)) if abs(w_arr[i]) > 1e-12)
    if w_arr[nz] < 0:
        w_arr = -w_arr
    if np.any(v_arr <= 0):
        raise DynamicsError("Perron vector is not strictly positive; L is not irreducible")

    residuals = []
    for k, vec in ((2, v_arr), (-2, w_arr)):
        proj = np.outer(vec, vec)
        power = np.eye(L.nrows, dtype=object)
        scale = 1.0
        seq = []
        for _ in range(PERRON_STEPS):
            power = _powers(bundle, k, power)
            scale *= rho * rho
            seq.append(float(np.linalg.norm(power.astype(float) / scale - proj)))
        residuals.append(tuple(seq))
    forward, backward = residuals
    if forward[-1] > PERRON_TOL:
        raise DynamicsError(
            f"forward Perron residual {forward[-1]:.3e} exceeds {PERRON_TOL:.0e} at n = {PERRON_STEPS}"
        )
    return PerronReport(rho, tuple(map(float, v_arr)), tuple(map(float, w_arr)), forward, backward)


# ---------------------------------------------------------------------------
# growth rates


@dataclass(frozen=True)
class GrowthReport:
    """Growth-rate comparison between the connection walk and related graphs."""

    rho_connection: float
    log_rho_connection: float
    rho_hodge_signless: float
    functional_link_residual: float
    rho_line_graph_adjacency: float


def growth_rates(bundle: OperatorBundle) -> GrowthReport:
    """Descriptive growth rates: log rho(L), the |H| link, and the line graph.

    rho(|H|) = rho(L) - 1/rho(L) is the exact functional link.  The line
    graph's adjacency radius comes from |H1| = |d| |d|^T, whose diagonal is
    2 (each edge has two ends) and whose off-diagonal entries count shared
    ends, so |H1| = 2I + A(line graph) and rho(A) = rho(|H1|) - 2 for a
    graph with an edge.  No command prints these: this is the library face
    of the abstract's line-graph link, in floats until it is certified.
    """
    rho_l = eig_sym(bundle.connection).top
    rho_habs = eig_sym(bundle.hodge_signless).top
    rho_lg = eig_sym(bundle.hodge1_signless).top - 2.0 if bundle.e else 0.0
    return GrowthReport(
        rho_connection=rho_l,
        log_rho_connection=math.log(rho_l),
        rho_hodge_signless=rho_habs,
        functional_link_residual=abs(rho_habs - (rho_l - 1.0 / rho_l)),
        rho_line_graph_adjacency=rho_lg,
    )
