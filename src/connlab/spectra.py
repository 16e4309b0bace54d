"""Floating-point spectra and spectral-radius bound estimators.

The exact layer (exact.py, operators.py) produces integer operators; this
module is where floating point is allowed.  It wraps a dense symmetric
eigensolver behind a checked contract and implements every bound column of
the measurement tables:

* rho        largest eigenvalue of the Kirchhoff matrix B - A
* rho_abs    largest eigenvalue of the signless Kirchhoff matrix B + A
* dual_vertex   r - 1/r with r = 1 + max over edges of (deg x + deg y)
* kwalk      r_k - 1/r_k with r_k = 1 + (max row sum of A(G')^k)^(1/k),
             row sums taken exactly
* bhs        u - 1/u with u = 1 + (sqrt(1 + 8 e') - 1)/2, e' = edge count
             of the connection graph G'
* lsc, shi   diameter-corrected degree bounds for irregular graphs

Every bound and bounds_report take the graph's OperatorBundle, whose
degrees, one bincount of the edge ends, serve the Kirchhoff diagonal and
every degree bound and regularity test of a row.  A bounds row costs two
v x v eigensolves, of the two Kirchhoff matrices built straight from the
edge list, and work linear in v + e.  Two cells of a 1-complex meet iff
they share a vertex, so the adjacency of the connection graph is the
block matrix A(G') = L - I = [[0, |d|^T], [|d|, A(G_L)]], A(G_L) =
|d| |d|^T - 2I the line graph's, and both G' bounds read the edge ends
alone: bound_kwalk steps x -> A(G') x three times, in
int64 while 4 r^K < 2^63 (r the largest row sum of A(G'), K the longest
walk) and on Python ints past it, for the walk bounds of k = 1, 2 and 3,
all checked for soundness and k = 3 printed; bound_bhs counts the edges of
G' off the degrees.  graphs.diameter is a bit-parallel BFS.  No L,
incidence, |D| or |H| is built: rho(|H|) is rho_abs by supersymmetry (see
BoundsReport).

Soundness (every applicable bound >= rho) is asserted whenever a report is
assembled, so a wrong formula cannot produce a quietly wrong table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .exact import IntMatrix
from .graphs import Graph, connected_components, diameter, induced_subgraph, is_regular
from .operators import OperatorBundle


class SpectraError(ValueError):
    """Raised for contract violations: asymmetric input, edgeless graphs."""


class SoundnessError(AssertionError):
    """An upper bound came out below the spectral radius it must dominate."""


# Relative asymmetry allowed before eig_sym refuses the input.
SYMMETRY_RTOL = 1e-12
# Residual target for the eigensolver.
EIG_TOL = 1e-10
# How far a bound may fall below rho before the soundness check refuses it.
SOUNDNESS_TOL = 1e-9
# Eigenvalues of L within this of 0 count as neither sign.
SIGN_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of one symmetric matrix plus the achieved residual."""

    eigenvalues: tuple[float, ...]
    matrix_dim: int
    tolerance_achieved: float

    def __post_init__(self) -> None:
        if len(self.eigenvalues) != self.matrix_dim:
            raise SpectraError("eigenvalue count does not match matrix_dim")
        if any(
            a > b for a, b in zip(self.eigenvalues, self.eigenvalues[1:])
        ):
            raise SpectraError("eigenvalues must be sorted ascending")

    @property
    def top(self) -> float:
        return self.eigenvalues[-1]


def eig_sym(m: IntMatrix) -> Spectrum:
    """Eigenvalues of a symmetric integer matrix, sorted ascending.

    The input must be symmetric within SYMMETRY_RTOL * max|m|; it is then
    explicitly symmetrized and handed to the dense symmetric solver.  The
    achieved residual max|A v - lambda v| / max(1, max|m|) is recorded and
    checked against EIG_TOL, so a silently bad decomposition raises instead of
    propagating.
    """
    a = m.to_float()
    if a.shape[0] != a.shape[1]:
        raise SpectraError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return Spectrum((), 0, 0.0)
    scale = max(1.0, float(np.max(np.abs(a))))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise SpectraError(
            f"matrix is not symmetric: max|A - A^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    s = (a + a.T) / 2.0
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise SpectraError(f"eigensolver did not converge: {exc}") from exc
    residual = float(np.max(np.abs(s @ v - v * w))) / scale
    if residual > EIG_TOL:
        raise SpectraError(
            f"eigensolver residual {residual:.3e} exceeds requested tolerance {EIG_TOL:.0e}"
        )
    # eigh returns the eigenvalues ascending, the order Spectrum checks
    return Spectrum(tuple(w.tolist()), n, residual)


# ---------------------------------------------------------------------------
# bound estimators


def _require_edges(g: Graph) -> None:
    if not g.edges:
        raise SpectraError(f"graph {g.name!r} has no edges; degree bounds are inapplicable")


def _edge_degree_max(bundle: OperatorBundle) -> int:
    """max over edges (a,b) of deg(a) + deg(b)."""
    _require_edges(bundle.graph)
    deg, ends = bundle.degrees, bundle.complex.edge_array
    return int((deg[ends[:, 0]] + deg[ends[:, 1]]).max())


def bound_trivial_2d(bundle: OperatorBundle) -> float:
    """Row-sum bound 2d on the Kirchhoff spectral radius, d = max degree."""
    _require_edges(bundle.graph)
    return 2.0 * int(bundle.degrees.max())


def bound_anderson_morley(bundle: OperatorBundle) -> float:
    """max over edges of deg(x) + deg(y), the 1-form row-sum bound."""
    return float(_edge_degree_max(bundle))


def bound_dual_vertex(bundle: OperatorBundle) -> float:
    """r - 1/r with r = 1 + max over edges of (deg x + deg y).

    r dominates rho(L) by a row-sum argument in the connection graph, and
    t -> t - 1/t is increasing, so this dominates rho(|H|) and in turn the
    Kirchhoff spectral radius.
    """
    r = 1.0 + _edge_degree_max(bundle)
    return r - 1.0 / r


def bound_kwalk(bundle: OperatorBundle, ks: Sequence[int]) -> dict[int, float]:
    """Walk bound r_k - 1/r_k, r_k = 1 + (max_x P(k,x))^(1/k), for every k
    in ks.

    P(k,x) counts length-k walks in the connection graph G' starting at x,
    that is row x of A(G')^k 1, starting from the all-ones vector; no power
    of A is formed.  Two cells of a 1-complex meet iff they share a vertex,
    so A(G') = L - I is the block matrix [[0, |d|^T], [|d|, A(G_L)]] with
    A(G_L) = |d| |d|^T - 2I the adjacency of the line graph, and one
    mat-vec x -> A(G') x reads only the edge ends: with S_v the sum of x_e
    over the edges e at v (one np.add.at per end column), vertex v becomes
    S_v and edge ab becomes x_a + x_b + S_a + S_b - 2 x_e.  That is O(v + e)
    per step, and no L is built.  The k-th mat-vec turns P(k-1, .) into
    P(k, .), so one pass of max(ks) mat-vecs gives every k.

    The counts are exact.  The largest row sum of A(G') is r = max over
    edges of deg a + deg b, so every count after K steps is at most r^K and
    every intermediate sum below 4 r^K: the pass runs in int64 while
    4 r^K < 2^63, K = max(ks), and on Python ints past it.  Only the final
    k-th root is floating point.

    Sound for every k: max_x P(k,x) >= rho(A)^k, so r_k >= rho(L) and the
    bound dominates rho(|H|) = rho(L) - 1/rho(L).  The max row sum is
    submultiplicative, so the bound is non-increasing along k | k' only;
    from k=2 to k=3 it can rise (K2: 2.0 then 2.20091).  It tends to
    rho(|H|) as k grows, at the rate max_x P(k,x) <= sqrt(n) rho(A)^k, that
    is r_k <= 1 + (rho(L) - 1) n^(1/(2k)), with n the number of cells.
    """
    if any(k < 1 for k in ks):
        raise SpectraError("walk length k must be >= 1")
    _require_edges(bundle.graph)
    v, ends = bundle.v, bundle.complex.edge_array
    a, b = ends[:, 0], ends[:, 1]
    top = max(ks, default=0)
    r = _edge_degree_max(bundle)
    dtype = np.int64 if 4 * r**top < 2**63 else object
    x = np.ones(bundle.size, dtype=dtype)
    walks = {}
    for k in range(1, top + 1):
        on_edges = x[v:]
        s = np.zeros(v, dtype=dtype)
        np.add.at(s, a, on_edges)
        np.add.at(s, b, on_edges)
        ends_sum = x[:v] + s
        x = np.concatenate((s, ends_sum[a] + ends_sum[b] - 2 * on_edges))
        walks[k] = int(x.max())
    out = {}
    for k in ks:
        if walks[k] <= 0:
            raise SpectraError("connection graph has no walks; graph must have an edge")
        # exp(log(P)/k) stays finite even when P overflows a float
        r_k = 1.0 + math.exp(math.log(walks[k]) / k)
        out[k] = r_k - 1.0 / r_k
    return out


def bound_bhs(bundle: OperatorBundle) -> float:
    """Edge-count bound u - 1/u, u = 1 + (sqrt(1 + 8 e') - 1)/2.

    The inner expression bounds the adjacency spectral radius of any graph
    with e' edges, applied here to the connection graph G'.  By the block
    form of A(G') (see bound_kwalk) its edges are the 2e vertex-edge
    incidences and the C(deg v, 2) pairs of edges at each vertex v, two
    edges of a simple graph sharing at most one vertex, so e' = 2e + sum
    over v of C(deg v, 2), read off the degrees in O(v + e).
    """
    _require_edges(bundle.graph)
    deg = bundle.degrees
    eprime = 2 * bundle.e + int(deg @ (deg - 1)) // 2
    u = 1.0 + (math.sqrt(1.0 + 8.0 * eprime) - 1.0) / 2.0
    return u - 1.0 / u


def _lsc_shi_one_component(g: Graph, d: int) -> tuple[float, float]:
    """Li-Shiu-Chan style 2d - 1/(v (2R + 1)) and Shi style 2d - 2/((2R + 1) v),
    d the maximum degree of g."""
    radius = diameter(g)
    v = g.n
    lsc = 2.0 * d - 1.0 / (v * (2 * radius + 1))
    shi = 2.0 * d - 2.0 / ((2 * radius + 1) * v)
    return lsc, shi


def _lsc_shi(
    bundle: OperatorBundle, components: list[list[int]], regular: bool
) -> tuple[float, float, bool, bool]:
    """(lsc, shi, applicable, per_component) of the bundle's graph g, given
    g's components and whether g is regular.

    Applicability follows the tables' caveat: the bound holds for irregular
    graphs only.  Disconnected input is handled per component with that
    component's own (d, diameter, v) and the maximum taken; a single regular
    component poisons applicability since its radius may exceed its own bound.
    """
    g, deg = bundle.graph, bundle.degrees
    if len(components) == 1:
        lsc, shi = _lsc_shi_one_component(g, int(deg.max()))
        return lsc, shi, not regular, False
    # a component keeps every edge at its vertices, so its degrees are g's
    vals = [
        _lsc_shi_one_component(induced_subgraph(g, comp), int(deg[comp].max()))
        for comp in components
    ]
    applicable = all(not is_regular(deg[comp]) for comp in components)
    return max(v[0] for v in vals), max(v[1] for v in vals), applicable, True


# ---------------------------------------------------------------------------
# assembled report


@dataclass(frozen=True)
class BoundsReport:
    """One table row: measured radii plus every bound estimator.

    rho_H and rho_Habs are the measured columns (Kirchhoff and signless
    Kirchhoff).  There is no separate column for the paper's limit
    rho(|H|): by supersymmetry |H| = |D|^2 has the Gram blocks |d|^T |d| =
    B + A and |d| |d|^T, which share their nonzero spectrum, so rho(|H|) =
    rho_Habs on every graph with an edge, and no |H| is built.
    """

    graph_name: str
    rho_H: float
    rho_Habs: float
    bound_trivial_2d: float
    bound_anderson_morley: float
    bound_dual_vertex: float
    bound_kwalk: Mapping[int, float]
    bound_bhs: float
    bound_lsc: float
    bound_shi: float
    flags: tuple[str, ...]

    def row(self) -> tuple[float, float, float, float, float, float]:
        """The six printed columns: rho, rho_abs, dual_vertex, walk3, bhs, lsc."""
        return (
            self.rho_H,
            self.rho_Habs,
            self.bound_dual_vertex,
            self.bound_kwalk[3],
            self.bound_bhs,
            self.bound_lsc,
        )


CSV_COLUMNS = ("name", "rho", "rho_abs", "dual_vertex", "walk3", "bhs", "lsc")


def _check_soundness(report: BoundsReport) -> None:
    rho = report.rho_H
    checks = [
        ("trivial_2d", report.bound_trivial_2d),
        ("anderson_morley", report.bound_anderson_morley),
        ("dual_vertex", report.bound_dual_vertex),
        ("bhs", report.bound_bhs),
    ]
    checks.extend((f"kwalk[{k}]", v) for k, v in report.bound_kwalk.items())
    if "lsc-inapplicable" not in report.flags:
        checks.append(("lsc", report.bound_lsc))
        checks.append(("shi", report.bound_shi))
    for label, value in checks:
        if value < rho - SOUNDNESS_TOL:
            raise SoundnessError(
                f"{report.graph_name}: bound {label} = {value!r} is below rho = {rho!r}"
            )


def bounds_report(bundle: OperatorBundle) -> BoundsReport:
    """All bound columns for one graph's bundle, with the walk bounds of
    k = 1, 2, 3 from one bound_kwalk pass, and the soundness invariant
    asserted."""
    g = bundle.graph
    _require_edges(g)
    rho_h = eig_sym(bundle.kirchhoff).top
    rho_habs = eig_sym(bundle.kirchhoff_signless).top
    components = connected_components(g)
    regular = is_regular(bundle.degrees)
    lsc, shi, applicable, per_component = _lsc_shi(bundle, components, regular)
    flags = []
    if regular:
        flags.append("regular")
    if len(components) > 1:
        flags.append("disconnected")
    if per_component:
        flags.append("lsc-per-component")
    if not applicable:
        flags.append("lsc-inapplicable")
    report = BoundsReport(
        graph_name=g.name or "graph",
        rho_H=rho_h,
        rho_Habs=rho_habs,
        bound_trivial_2d=bound_trivial_2d(bundle),
        bound_anderson_morley=bound_anderson_morley(bundle),
        bound_dual_vertex=bound_dual_vertex(bundle),
        bound_kwalk=bound_kwalk(bundle, (1, 2, 3)),
        bound_bhs=bound_bhs(bundle),
        bound_lsc=lsc,
        bound_shi=shi,
        flags=tuple(flags),
    )
    _check_soundness(report)
    return report


# ---------------------------------------------------------------------------
# the sign split of a connection spectrum


def connection_sign_split(l_spec: Spectrum) -> tuple[int, int]:
    """(negative count, positive count) of a connection Laplacian spectrum.

    For a 1-dimensional complex these are (e, v): the spectrum lives in
    [-1, 0) union [1, infinity), and -1 is attained (cycles, for example).
    No command prints it; the sign-split acceptance criterion reads it.
    """
    neg = sum(1 for lam in l_spec.eigenvalues if lam < -SIGN_TOL)
    pos = sum(1 for lam in l_spec.eigenvalues if lam > SIGN_TOL)
    return neg, pos


def block_gap(l_spec: Spectrum, negative_count: int) -> float:
    """lambda_{e+1} - lambda_e across the negative/positive split of sigma(L),
    at least 1 on every graph; the sign-split acceptance criterion reads it."""
    e = negative_count
    if e == 0 or e >= l_spec.matrix_dim:
        return math.inf
    return l_spec.eigenvalues[e] - l_spec.eigenvalues[e - 1]
