"""Operators attached to a 1-dimensional complex.

Row and column order everywhere is the simplex order of the complex:
vertices ascending, then edges lexicographically.  All matrices are exact
integer matrices; nothing in this module touches floating point.

The central objects:

  d0       signed incidence, one row per edge {a,b} with a<b: -1 at a, +1 at b
  D        Dirac block matrix [[0, d0^T], [d0, 0]]
  H = D^2  Hodge operator, block diagonal H0 (+) H1 = d0^T d0 (+) d0 d0^T
  |D|,|H|  the same built from the signless incidence |d0|
  L        connection matrix, L(x,y) = 1 iff the simplices x and y intersect
  g        Green matrix, the exact integer inverse of L

g is produced by the star formula g(x,y) = w(x) w(y) chi(St(x) /\\ St(y))
with w = (-1)^dim, then certified by _is_inverse: the sparse product L @ g
against the identity (products certifies kron(g_A, g_B) the same way).
OperatorBundle.green is the one source of L^-1 outside the oracles, over
the integers and, reduced mod p, over F_p: verify compares it with
OperatorBundle.schur_inverse().

det L comes from the Schur complement of the vertex block: L = [[I_v, B^T],
[B, C]] with B the edge-vertex containment matrix, so det L = det(C - B B^T),
summed over each vertex's incident edges and read off as the product of its
diagonal (it is -I_e for every graph).  Bareiss elimination (exact.det) is
the test oracle for this route.  The Schur certificate has one way in, the
bundle: OperatorBundle.schur forms the blocks once, connection_det
multiplies S's diagonal, schur_inverse() (verify's oracle for g) is the
block inverse read from L's entries alone, and reciprocity_sign certifies
that charpoly(L^2) is reciprocal with sign (-1)^n, in O(nnz), from
L == L^T and C - B B^T = -I_e: spec(L^2) is then closed under x -> 1/x.
verify and product read reciprocity from it; the multimodular charpoly in
tests/oracles.py is its differential oracle, and the tests reach the
certificate on an edited L by setting a bundle's connection before its
first read.

Every builder here emits (row, column, value) triplets from the complex's
edge array and hands them to IntMatrix.from_triplets, or writes the
compressed rows themselves (IntMatrix.from_csr); no operator passes through
dense rows or Python dicts.  L is the union of the vertex stars, g one
triplet per vertex and nine per edge, d0 two entries per edge row, and D is
d0 and its transpose.  H and |H| are what the paper defines them to be,
D @ D and |D| @ |D|, by the sparse product; supersymmetry_report compares
each with the block-diagonal d0^T d0 (+) d0 d0^T of Gram products formed
from d0 itself, so a fault in the Dirac assembly that changes its square,
or a fault in IntMatrix.block, fails verify.  L @ g = I, the Schur
complement [W C] @ [[-U], [I]] and the hydrogen residual (one sum of the
signed triplets of |H|, L and g) go through the same kernel.  The
test suite keeps the dense product and the dense builders
(tests/oracles.py) as the oracles.  The signless incidence and Kirchhoff
matrices are the entrywise abs of the signed ones, read off the bundle's
cached signed incidence and Kirchhoff matrix.  The signed operators
have the one orientation of d0 above; H0 and |H| do not depend on it,
which the tests check on other orientations, built by dirac_from_incidence
from a flipped dense incidence.

Each identity is read off one value: the hydrogen identity holds when
hydrogen_residual(b).is_zero() (over F_p, when field_reduce of it mod p is
zero), L is unimodular when b.connection_det is +-1, and the energy
theorem says b.green.entry_sum() is the Euler characteristic v - e.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import mul

import numpy as np

from .complexes import Complex, build_complex, sphere_chi
from .exact import (
    FieldMatrix,
    IntMatrix,
    SingularMatrixError,
    field_reduce,
    linear_combination,
)
from .graphs import Graph, betti_numbers


def incidence_signed(c: Complex) -> IntMatrix:
    """Signed incidence matrix d0 (edges x vertices), each edge oriented
    from its smaller endpoint to its larger one."""
    # edges are stored with a < b, so row k's columns (a, b) are in order
    values = np.tile(np.array((-1, 1), dtype=np.int64), c.e)
    return IntMatrix.from_csr(2 * np.arange(c.e + 1), c.edge_array.ravel(), values, c.e, c.v)


def dirac_from_incidence(d0: IntMatrix) -> IntMatrix:
    """Assemble the Dirac block matrix [[0, d0^T], [d0, 0]]: vertex row x
    holds column x of d0, shifted past the vertices, and edge row k is row k
    of d0."""
    v, n = d0.ncols, d0.ncols + d0.nrows
    rows, cols, values = d0.triplets()
    return IntMatrix.from_triplets(
        np.concatenate((cols, rows + v)), np.concatenate((rows + v, cols)),
        np.concatenate((values, values)), n, n,
    )


def connection_matrix(c: Complex) -> IntMatrix:
    """L(x,y) = 1 iff the closed simplices x and y share a vertex.

    Two simplices share the vertex a exactly when both lie in its star (a
    and its incident edges), so L is the union of one all-ones block per
    vertex star: a vertex row is its own star, and an edge row the union of
    its endpoints' stars.  The stars of a and b meet only in the edge {a, b}
    itself, so its row is the sum of the two stars less 1 on the diagonal.
    """
    v, n = c.v, c.size
    ends = c.edge_array.ravel()
    edge = np.repeat(np.arange(v, n), 2)  # the edge of each end
    # row a lists the edges at a; a stable sort of the ends keeps them in order
    order = ends.argsort(kind="stable")
    at = IntMatrix.from_csr(
        np.searchsorted(ends[order], np.arange(v + 1)), edge[order],
        np.ones(len(ends), dtype=np.int64), v, n,
    )
    t, neighbours, _ = at.row_terms(ends)
    vertices, diagonal = np.arange(v), np.arange(v, n)
    return IntMatrix.from_triplets(
        np.concatenate((vertices, ends[order], edge, edge[t], diagonal)),
        np.concatenate((vertices, edge[order], ends, neighbours, diagonal)),
        np.concatenate((np.ones(v + 2 * len(ends) + len(t), dtype=np.int64), np.full(n - v, -1))),
        n, n,
    )


# w(x) w(y) chi(t) over the faces x, y of an edge t = {a, b} in the order a,
# b, t: w = (1, 1, -1) and chi(t) = -1
_EDGE_FACE_PAIRS = -np.outer((1, 1, -1), (1, 1, -1)).ravel()


def green_star(c: Complex) -> IntMatrix:
    """Green matrix from the star formula.

    g(x,y) = w(x) w(y) chi(St(x) /\\ St(y)) with w = (-1)^dim and chi of a
    set of simplices the alternating count (vertices minus edges).  A
    simplex t lies in St(x) exactly when x is a face of t, so g is the sum
    over t of chi(t) w(x) w(y) over the pairs of faces x, y of t: one term
    per vertex and nine per edge.  This is the closed form for the inverse
    of the connection matrix; callers that need a certified inverse should
    go through OperatorBundle.green, which verifies L @ g = I exactly.
    """
    v, n = c.v, c.size
    faces = np.column_stack((c.edge_array, np.arange(v, n)))
    return IntMatrix.from_triplets(
        np.concatenate((np.arange(v), np.repeat(faces, 3, axis=1).ravel())),
        np.concatenate((np.arange(v), np.tile(faces, 3).ravel())),
        np.concatenate((np.ones(v, dtype=np.int64), np.tile(_EDGE_FACE_PAIRS, c.e))),
        n, n,
    )


def _is_inverse(m: IntMatrix, g: IntMatrix) -> bool:
    """m @ g == I: the compressed rows of the sparse product against those
    of the identity."""
    return m.is_square() and g.shape == m.shape and m @ g == IntMatrix.identity(m.nrows)


class OperatorBundle:
    """Every operator of one complex, computed on demand and cached.

    The signed operators orient each edge from its smaller endpoint to its
    larger one; the signless family and the connection side have no
    orientation.
    """

    def __init__(self, g: Graph):
        self.complex = build_complex(g)
        self._reduced: dict[tuple[str, int], FieldMatrix] = {}

    @property
    def graph(self) -> Graph:
        return self.complex.graph

    @property
    def v(self) -> int:
        return self.complex.v

    @property
    def e(self) -> int:
        return self.complex.e

    @property
    def size(self) -> int:
        return self.complex.size

    # -- incidence / Dirac / Hodge ------------------------------------------

    @cached_property
    def incidence(self) -> IntMatrix:
        return incidence_signed(self.complex)

    @cached_property
    def incidence_signless(self) -> IntMatrix:
        return self.incidence.abs()

    @cached_property
    def dirac(self) -> IntMatrix:
        return dirac_from_incidence(self.incidence)

    @cached_property
    def dirac_signless(self) -> IntMatrix:
        return dirac_from_incidence(self.incidence_signless)

    @cached_property
    def hodge(self) -> IntMatrix:
        return self.dirac @ self.dirac

    @cached_property
    def hodge_signless(self) -> IntMatrix:
        return self.dirac_signless @ self.dirac_signless

    @cached_property
    def hodge0(self) -> IntMatrix:
        return self.hodge.block(0, self.v, 0, self.v)

    @cached_property
    def hodge1(self) -> IntMatrix:
        return self.hodge.block(self.v, self.size, self.v, self.size)

    @cached_property
    def hodge0_signless(self) -> IntMatrix:
        return self.hodge_signless.block(0, self.v, 0, self.v)

    @cached_property
    def hodge1_signless(self) -> IntMatrix:
        return self.hodge_signless.block(self.v, self.size, self.v, self.size)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Vertex degrees, one bincount of the edge ends: the Kirchhoff
        diagonal and every degree bound read these."""
        return np.bincount(self.complex.edge_array.ravel(), minlength=self.v)

    @cached_property
    def kirchhoff(self) -> IntMatrix:
        """Degree-minus-adjacency matrix, built directly from the graph.

        Independent of the incidence route on purpose: tests compare it
        against hodge0.
        """
        v, edges = self.v, self.complex.edge_array
        a, b = edges[:, 0], edges[:, 1]
        vertices = np.arange(v)
        return IntMatrix.from_triplets(
            np.concatenate((vertices, a, b)), np.concatenate((vertices, b, a)),
            np.concatenate((self.degrees, np.full(2 * len(a), -1))),
            v, v,
        )

    @cached_property
    def kirchhoff_signless(self) -> IntMatrix:
        """Degree-plus-adjacency: on a simple graph every off-diagonal entry
        of the Kirchhoff matrix is one -1, so this is its entrywise abs."""
        return self.kirchhoff.abs()

    # -- connection side -----------------------------------------------------

    @cached_property
    def connection(self) -> IntMatrix:
        return connection_matrix(self.complex)

    @cached_property
    def green(self) -> IntMatrix:
        """Certified integer inverse of the connection matrix."""
        g = green_star(self.complex)
        if not _is_inverse(self.connection, g):
            raise ArithmeticError("star formula failed certification against L")
        return g

    @cached_property
    def schur(self) -> tuple[IntMatrix, IntMatrix, list[int]]:
        """(U, W, diagonal of S) for L = [[I_v, U], [W, C]], S = C - W U,
        formed once for connection_det, reciprocity_sign and schur_inverse.

        S is one sparse product, [W C] @ [[-U], [I]]: each row of S
        subtracts the U rows at its W entries, the two vertices of an edge.
        Raises ArithmeticError unless the vertex block is exactly the
        identity and S is diagonal.
        """
        m, v, e, n = self.connection, self.v, self.e, self.size
        if m.block(0, v, 0, v) != IntMatrix.identity(v):
            raise ArithmeticError("vertex block is not the identity")
        u, w = m.block(0, v, v, n), m.block(v, n, 0, v)
        indptr, cols, values = u.csr
        lift = IntMatrix.from_csr(
            np.concatenate((indptr, indptr[-1] + np.arange(1, e + 1))),
            np.concatenate((cols, np.arange(e))),
            np.concatenate((-values, np.ones(e, dtype=np.int64))),
            n, e,
        )
        rows, cols, values = (m.block(v, n, 0, n) @ lift).triplets()
        if (rows != cols).any():
            raise ArithmeticError("Schur complement of the vertex block is not diagonal")
        s = np.zeros(e, dtype=values.dtype)
        s[rows] = values
        return u, w, s.tolist()

    @cached_property
    def connection_det(self) -> int:
        return prod(self.schur[2])

    @cached_property
    def reciprocity_sign(self) -> int | None:
        """(-1)^n, the sign s with x^n p(1/x) = s p(x) for p = charpoly(L @ L),
        when W = U^T and S = -I; None otherwise, also when the vertex block
        is not I or S is not diagonal.  C = S + U^T U is then symmetric, so
        these ask for L == L^T and S = -I.

        The certificate is sufficient, not necessary.  For a singular triple
        (sigma, a, b) of U, L acts on span{(a, 0), (0, b)} as [[1, sigma],
        [sigma, sigma^2 - 1]], of determinant -1, so with eigenvalues lambda
        and -1/lambda; it is 1 on (ker U^T, 0) and -1 on (0, ker U).  So
        spec(L @ L) is closed under x -> 1/x with multiplicity and
        det L^2 = 1, which makes charpoly(L @ L) reciprocal with sign
        (-1)^n.  O(nnz).
        """
        try:
            u, w, s = self.schur
        except ArithmeticError:
            return None
        if any(x != -1 for x in s) or w != u.transpose():
            return None
        return -1 if self.size % 2 else 1

    def schur_inverse(self) -> IntMatrix:
        """L^-1 = [[I + U S^-1 W, -U S^-1], [-S^-1 W, S^-1]], from the
        triplets of U, W and the sparse product U S^-1 W: verify's oracle for
        green, read from L's entries alone.

        Raises SingularMatrixError when S has a 0 on its diagonal and
        ValueError when an entry there is not +-1, that is when L has no
        integer inverse.
        """
        u, w, s = self.schur
        if any(x not in (1, -1) for x in s):
            error = SingularMatrixError if 0 in s else ValueError
            raise error(f"no integer inverse: Schur complement diagonal {sorted(set(s))}")
        v, e, n = self.v, self.e, self.size
        s = np.array(s, dtype=np.int64)  # S^-1 = S
        ur, uc, ua = u.triplets()
        wr, wc, wa = w.triplets()
        us = IntMatrix.from_csr(u.csr[0], uc, ua * s[uc], v, e)
        usw_rows, usw_cols, usw = (us @ w).triplets()
        vertices, edges = np.arange(v), np.arange(v, n)
        return IntMatrix.from_triplets(
            np.concatenate((vertices, usw_rows, ur, wr + v, edges)),
            np.concatenate((vertices, usw_cols, uc + v, wc, edges)),
            np.concatenate((np.ones(v, dtype=np.int64), usw, -us.csr[2], -s[wr] * wa, s)),
            n, n,
        )

    def reduced(self, name: str, p: int) -> FieldMatrix:
        """The operator of that name (connection, green, ...) reduced mod p,
        built once per bundle and prime."""
        key = (name, p)
        if key not in self._reduced:
            self._reduced[key] = field_reduce(getattr(self, name), p)
        return self._reduced[key]


def bundle_for(g: Graph) -> OperatorBundle:
    """The bundle of a graph."""
    return OperatorBundle(g)


# ---------------------------------------------------------------------------
# identity checks


def hydrogen_residual(bundle: OperatorBundle) -> IntMatrix:
    """|H| - (L - L^-1), one aggregation of the signed triplets of |H|, L and g;
    the zero matrix, with no nonzero entry, exactly when the identity holds.

    field_reduce(hydrogen_residual(bundle), p) states the identity over F_p:
    bundle.green is certified by L g = I over Z, reduction mod p is a ring
    homomorphism and det L = +-1 is a unit in every F_p, so g mod p is
    L^-1 over F_p.
    """
    return linear_combination(
        (bundle.hodge_signless, 1), (bundle.connection, -1), (bundle.green, 1)
    )


@dataclass(frozen=True)
class TraceReport:
    """Exact trace identities tying the connection and Hodge sides together."""

    simplices: int
    edges: int
    connection_trace: int
    hodge_signless_trace: int
    sphere_chi_sum: int
    connection_sq_trace: int
    hodge_signless_sq_trace: int
    intersection_edges: int
    hodge0_signless_sq_trace: int
    hodge1_signless_sq_trace: int

    @property
    def ok(self) -> bool:
        return (
            self.connection_trace == self.simplices
            and self.hodge_signless_trace == self.sphere_chi_sum == 4 * self.edges
            and self.hodge_signless_sq_trace
            == 2 * self.connection_sq_trace - 2 * self.simplices
            == 4 * self.intersection_edges
            and self.hodge0_signless_sq_trace == self.hodge1_signless_sq_trace
        )


def _trace_of_square(m: IntMatrix) -> int:
    """tr(m @ m) as the sum of m[i][j] * m[j][i] over the entries of m,
    each (j, i) found by binary search among the sorted keys i * n + j."""
    rows, cols, values = m.triplets()
    if not len(values):
        return 0
    keys, mirror = rows * m.ncols + cols, cols * m.ncols + rows
    at = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
    hit = keys[at] == mirror
    return sum(map(mul, values[hit].tolist(), values[at[hit]].tolist()))


def trace_report(bundle: OperatorBundle) -> TraceReport:
    c = bundle.complex
    habs = bundle.hodge_signless
    return TraceReport(
        simplices=c.size,
        edges=c.e,
        connection_trace=bundle.connection.trace(),
        hodge_signless_trace=habs.trace(),
        sphere_chi_sum=sum(sphere_chi(c, s) for s in c.simplices),
        connection_sq_trace=_trace_of_square(bundle.connection),
        hodge_signless_sq_trace=_trace_of_square(habs),
        intersection_edges=(bundle.connection.entry_sum() - c.size) // 2,
        hodge0_signless_sq_trace=_trace_of_square(bundle.hodge0_signless),
        hodge1_signless_sq_trace=_trace_of_square(bundle.hodge1_signless),
    )


@dataclass(frozen=True)
class SupersymmetryReport:
    """Nonzero spectra of the two Hodge blocks agree; kernels count cycles.

    For any matrix d, d^T d and d d^T have the same nonzero spectrum, so the
    report rests on exact facts about the incidence factor d and runs no
    characteristic polynomial.  nonzero_match holds exactly when H0 equals
    the independently built Kirchhoff matrix and H = D @ D is d^T d (+) d d^T,
    the Gram products formed from d, with zero off-diagonal blocks.  The
    kernel counts are v - rank d and e - rank d, with rank d certified by
    forest_rank; the signless fields are the same for |d|, |H0|, |H1| and
    the signless Kirchhoff matrix.  A kernel count is None, and the report
    not ok, when the certificate leaves a rank undecided.
    """

    betti0: int
    betti1: int
    kernel0: int | None
    kernel1: int | None
    nonzero_match: bool
    signless_kernel0: int | None
    signless_kernel1: int | None
    signless_nonzero_match: bool

    @property
    def ok(self) -> bool:
        return (
            self.kernel0 == self.betti0
            and self.kernel1 == self.betti1
            and self.signless_kernel0 is not None
            and self.nonzero_match
            and self.signless_nonzero_match
        )


@dataclass(frozen=True)
class SpanningForest:
    """A breadth-first spanning forest: each vertex's place in the search
    order, the edge (incidence row) that reached it (None at the roots), its
    component, numbered by least vertex, and a +-1 colouring alternating
    along the tree; odd holds the components that are not bipartite, those
    with an edge between two vertices of one colour.
    """

    position: list[int]
    parent_edge: list[int | None]
    component: list[int]
    colour: list[int]
    components: int
    odd: frozenset[int]


def spanning_forest(c: Complex) -> SpanningForest:
    """The breadth-first spanning forest of c's graph, in O(v + e)."""
    v, edges = c.v, c.graph.edges
    position = [-1] * v
    parent_edge: list[int | None] = [None] * v
    component, colour = [0] * v, [0] * v
    odd = set()
    seen = components = 0
    for root in range(v):
        if position[root] >= 0:
            continue
        position[root], component[root], colour[root] = seen, components, 1
        seen += 1
        queue = [root]
        for x in queue:
            for k in c.incident_edges[x]:
                a, b = edges[k - v]
                y = a + b - x
                if position[y] < 0:
                    position[y], parent_edge[y] = seen, k - v
                    component[y], colour[y] = components, -colour[x]
                    seen += 1
                    queue.append(y)
                elif colour[y] == colour[x]:
                    odd.add(components)
        components += 1
    return SpanningForest(position, parent_edge, component, colour, components, frozenset(odd))


def forest_rank(m: IntMatrix, forest: SpanningForest, signless: bool = False) -> int | None:
    """rank m over Q for the incidence d of the forest's graph, or for |d|
    when signless is set, or None when these bounds, read off m's compressed
    rows in O(v + nnz), do not meet.

    Lower: the row of each non-root x's parent edge must have x as its
    nonzero column latest in search order, so these rows and the non-root
    columns form a triangular minor with nonzero diagonal.  For |d|, if
    every forest row maps each odd component's colouring to 0, a row that
    maps exactly one of them to nonzero is outside the span of the forest
    rows and of such rows for other odd components, so each adds 1.
    Upper: the indicator of each component (for |d| the colouring of each
    bipartite one) that m maps to 0 is in ker m, and their supports are
    disjoint; and rank m <= e.
    """
    position, component = forest.position, forest.component
    weight = forest.colour if signless else (1,) * len(component)
    odd = forest.odd if signless else frozenset()
    pivot = {k: x for x, k in enumerate(forest.parent_edge) if k is not None}
    lower = 0
    hit: set[int] = set()  # components whose vector some row does not map to 0
    witnessed: set[int] = set()
    clean = True  # every forest row maps every odd colouring to 0
    indptr, cols, values = m.csr
    pairs = list(zip(cols.tolist(), values.tolist()))
    bounds = indptr.tolist()
    for k, row in enumerate(pairs[a:b] for a, b in zip(bounds, bounds[1:])):
        pairing: dict[int, int] = {}
        for j, a in row:
            pairing[component[j]] = pairing.get(component[j], 0) + a * weight[j]
        nonzero = {c for c, total in pairing.items() if total}
        hit |= nonzero
        if k in pivot:
            if max((j for j, _ in row), key=position.__getitem__, default=None) != pivot[k]:
                return None
            lower += 1
            clean = clean and not nonzero & odd
        elif len(nonzero & odd) == 1:
            witnessed |= nonzero & odd
    lower += len(witnessed) if clean else 0
    upper = min(m.nrows, m.ncols - (forest.components - len(hit | odd)))
    return lower if lower == upper else None


def _is_gram_square(
    d: IntMatrix, h: IntMatrix, h0: IntMatrix, h1: IntMatrix, kirchhoff: IntMatrix
) -> bool:
    """h is the block-diagonal d^T d (+) d d^T: every nonzero of h lies in
    the diagonal block of its row, h0 == kirchhoff == d^T d and h1 == d d^T,
    the Gram products formed from d itself, not from the Dirac square h."""
    v, dt = d.ncols, d.transpose()
    rows, cols, _ = h.triplets()
    diagonal = bool(((rows < v) == (cols < v)).all())
    return diagonal and h0 == kirchhoff == dt @ d and h1 == d @ dt


def supersymmetry_report(bundle: OperatorBundle) -> SupersymmetryReport:
    b0, b1 = betti_numbers(bundle.graph)
    forest = spanning_forest(bundle.complex)
    rank = forest_rank(bundle.incidence, forest)
    signless_rank = forest_rank(bundle.incidence_signless, forest, signless=True)
    return SupersymmetryReport(
        betti0=b0,
        betti1=b1,
        kernel0=None if rank is None else bundle.v - rank,
        kernel1=None if rank is None else bundle.e - rank,
        nonzero_match=_is_gram_square(
            bundle.incidence, bundle.hodge, bundle.hodge0, bundle.hodge1, bundle.kirchhoff
        ),
        signless_kernel0=None if signless_rank is None else bundle.v - signless_rank,
        signless_kernel1=None if signless_rank is None else bundle.e - signless_rank,
        signless_nonzero_match=_is_gram_square(
            bundle.incidence_signless,
            bundle.hodge_signless,
            bundle.hodge0_signless,
            bundle.hodge1_signless,
            bundle.kirchhoff_signless,
        ),
    )
