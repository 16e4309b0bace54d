"""Slow exact routines kept as test oracles for the fast routes in src/.

from_rows is how the tests write a matrix: dense rows, whose nonzero
entries IntMatrix.from_triplets stores, reduced mod p by field_reduce when
a prime is given.  The package has no dense-rows constructor; every matrix
there comes from from_csr, from_triplets or an operation.

inverse_unimodular is a fraction-free Gauss-Jordan inverse, O(n^3) on big
integers.  The Schur-complement block inverse
(OperatorBundle.schur_inverse()), the star-formula Green matrix,
kron(g_A, g_B) for products and the backward walks are compared with it.

field_inverse is Gauss-Jordan elimination over F_p, O(n^3) time and n^2
memory.  verify --field reduces the certified integer hydrogen residual
mod p instead, with the certified g mod p as L^-1; the tests compare g mod
p with field_inverse(L mod p) over the corpus.

dense_matmul is the schoolbook product of the dense rows, O(n^3), the
oracle for the sparse IntMatrix @ and for the Hodge operators built as
Dirac squares.  pairs reads the (column, value) pairs of each row off the
compressed rows, the form the tests write expected values in, and
matrix_from_pairs stores such pairs back as they are.

charpoly is the multimodular characteristic polynomial: a numpy int64
Hessenberg reduction mod word primes (_charpoly_mod), lifted by Chinese
remaindering past a Hadamard coefficient bound (_coefficient_bound) and
certified against one Bareiss determinant.  graeffe squares its roots and
reciprocal_sign reads the sign s with x^n p(1/x) = s p(x), so
reciprocal_sign(graeffe(charpoly(L))) is the route verify and product took
to reciprocity before the bundle's Schur certificate
(OperatorBundle.reciprocity_sign), and its differential oracle.

supersymmetry_charpoly is the characteristic-polynomial route that
operators.supersymmetry_report replaced: four multimodular charpolys
compared with their zero roots stripped.  rank is Gaussian elimination on
Fractions, the reference for the ranks of d and |d| that
operators.forest_rank reads off a spanning forest.  certified_rank is the
multimodular rank that forest_rank replaced in supersymmetry_report: numpy
int64 elimination mod word primes (_rank_mod, _prime), closed by kernel
vectors such as component_vectors gives, or by Hadamard's bound on the
minors; it is kept as a second oracle.  matpow is binary exponentiation by
dense products; quaternion_branch_rank builds the 4n x 4n branch map from
both and takes its rank.  kwalk_through_connection is the walk bound as
spectra.bound_kwalk took it before it stepped the block form of A(G') from
the edge ends: big-integer mat-vecs with the assembled L, A x = L x - x.

dense_kron is the Kronecker product written entry by entry from the dense
rows, the oracle for IntMatrix.kron over the triplets.
intersection_rule_loop tests every pair of product cells for an
intersection, O(N^2) for N cells; products.connection_by_intersection
pairs the factors' shared-vertex pairs instead.  exact_jacobian_loop
is the Newton Jacobian at L written the same way, one entry per pair of
pattern coordinates from the dense rows of g, O(m^2) for m coordinates;
newton.exact_jacobian_at_connection builds it from g (x) g instead.  edited gives a copy of
a matrix with some entries changed, the way the mutation tests build a
corrupted operator, since a matrix never changes once built;
negated_edge_row and stray_vertex_entry wrap the Dirac builder the same
way, and stray_forest_entry, zeroed_forest_pivot, resigned_odd_rows,
shared_odd_row and broken_colouring wrap operators.forest_rank: each hands
the certificate a faulty matrix or forest that it must leave undecided.

diameter_bfs is the repeated single-source BFS that graphs.diameter
replaced by the bit-parallel all-sources BFS, kept as its oracle.

line_graph builds the line graph pair by pair, O(e^2); dynamics.growth_rates
reads its adjacency radius off |H1| = 2I + A(line graph) instead, and the
tests check that identity entry by entry over the corpus.

jacobi_residual_two_apply is the Jacobi residual with the materialized |H|
applied twice at every time, one mat-vec at a time; dynamics.jacobi_residual
instead steps |D| twice over blocks of states and, on a walk, reads the
residual off the hydrogen defects.  jacobi_ivp extends any four consecutive
states u(0)..u(3) through the recurrence, which parameterizes the whole
4n-dimensional solution space, and combined_solution sums the quaternion
branches on the times they share; the tests compare the two.  Both build
their Trajectory from states keyed by time with trajectory, which stacks
them once into rows.

The dense_* builders write each bundle operator entry by entry into dense
rows; operators builds them as compressed rows instead, and the tests
compare the two over the corpus.  dense_connection tests every pair of
simplices for an intersection (simplices_intersect), dense_green_star
weighs each cell by parity, omega(x) = (-1)^dim(x), and dense_hodge forms
the Gram blocks d0^T d0 and d0 d0^T by dense products.

spectral_function_sup_distance measures how far the sorted Kirchhoff
spectrum of a cycle, read as the step function spectral_function, lies
from the barycentric limit profile 4 sin^2(pi x / 2) (limit_profile);
limit_functional_equation_residual samples the doubling identity of that
profile.

exact_root_multiset isolates the real roots of an integer polynomial by
Sturm chains over the rationals, each member scaled to a primitive integer
polynomial and evaluated by integer Horner, and
validate_spectrum_against_charpoly compares spectra.eig_sym with the roots
of charpoly.

is_connected asks whether a graph has one component; no module of the
package needs it since bounds_report counts components once.

cocycle estimates the Lyapunov exponent of a product of connection matrices
drawn from an EnvironmentSequence, in floating point with periodic
renormalization; constant_environment repeats one L, whose exponent is
log rho(L).  No module of the package runs it.

reference_parser is the command-line parser written out one subcommand at a
time, as it was before cli built its parsers from one command table, each
subcommand with only the shared flags its handler reads; the parity tests
compare every parse, help text and usage error of cli.main with it.
"""

import argparse
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from connlab import cli
from connlab.complexes import Complex, Simplex
from connlab.dynamics import DynamicsError, Trajectory
from connlab.exact import (
    FieldMatrix,
    IntMatrix,
    ShapeError,
    SingularMatrixError,
    det,
    field_reduce,
    is_prime,
    linear_combination,
)
from connlab.graphs import Graph, GraphError, betti_numbers, connected_components
from connlab.operators import OperatorBundle, SupersymmetryReport
from connlab.spectra import SpectraError, Spectrum, eig_sym


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def parity(x: Simplex) -> int:
    """omega(x) = (-1)^dim(x): +1 on vertices, -1 on edges."""
    return -1 if len(x) == 2 else 1


def simplices_intersect(x: Simplex, y: Simplex) -> bool:
    return bool(set(x) & set(y))


def from_rows(rows: Sequence[Sequence[int]], *, ncols: int | None = None, p: int | None = None) -> IntMatrix:
    """The matrix of the dense rows, the form the tests write fixtures in:
    their nonzero entries stored by IntMatrix.from_triplets, reduced mod p
    by field_reduce when p is given.  The column count is the first row's;
    a matrix with no rows takes it from ncols."""
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else ncols
    assert all(len(row) == ncols for row in rows), "ragged rows"
    entries = [(i, j, a) for i, row in enumerate(rows) for j, a in enumerate(row) if a]
    i, j, a = zip(*entries) if entries else ((), (), ())
    m = IntMatrix.from_triplets(i, j, a, len(rows), ncols)
    return m if p is None else field_reduce(m, p)


def dense_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a @ b from the dense rows, one sum of products per entry."""
    if a.ncols != b.nrows:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    cols = list(zip(*b.rows))
    if not cols:
        return IntMatrix.zeros(a.nrows, b.ncols)
    return from_rows(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows],
        ncols=b.ncols,
    )


def pairs(m: IntMatrix) -> list[list[tuple[int, int]]]:
    """The (column, value) pairs of each row of m, read off its compressed
    rows, in column order and as Python ints."""
    indptr, cols, values = m.csr
    flat = list(zip(cols.tolist(), values.tolist()))
    bounds = indptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def matrix_from_pairs(rows: Sequence[Sequence[tuple[int, int]]], ncols: int) -> IntMatrix:
    """The matrix whose row i holds the (column, value) pairs rows[i],
    stored by IntMatrix.from_csr exactly as given."""
    flat = [pair for row in rows for pair in row]
    return IntMatrix.from_csr(
        np.cumsum([0] + [len(row) for row in rows]),
        [j for j, _ in flat],
        [a for _, a in flat],
        len(rows),
        ncols,
    )


def matrix_from_dicts(rows: Sequence[dict[int, int]], ncols: int) -> IntMatrix:
    """The matrix whose row i maps each column to its entry as rows[i]
    does; zero entries are dropped."""
    return matrix_from_pairs([sorted([(j, a) for j, a in row.items() if a]) for row in rows], ncols)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix by fraction-free Gauss-Jordan.

    The augmented system [m | I] is reduced with Bareiss-style integer
    updates, each division exact by the Sylvester identity.  At the end every
    diagonal entry of the left block equals the final pivot, which is
    +-det m, so the inverse is the right block divided by it.  Raises
    SingularMatrixError on a zero pivot and ValueError when the final pivot
    is not +-1, that is when m has no integer inverse.
    """
    if not m.is_square():
        raise ShapeError("inverse needs a square matrix")
    n = m.nrows
    width = 2 * n
    a = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    break
            else:
                raise SingularMatrixError("matrix is singular over the rationals")
        pivot = a[k][k]
        row_k = a[k]
        for i in range(n):
            if i == k:
                continue
            row_i = a[i]
            f = row_i[k]
            for j in range(width):
                if j == k:
                    continue
                num = pivot * row_i[j] - f * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("inexact division in Jordan step")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    if prev not in (1, -1):
        raise ValueError(f"matrix is not unimodular: final pivot {prev}")
    # 1/prev == prev for prev = +-1
    return from_rows([[prev * x for x in row[n:]] for row in a], ncols=n)


def field_inverse(m: FieldMatrix) -> FieldMatrix:
    """Inverse over F_p by Gauss-Jordan elimination with modular pivots."""
    if not m.is_square():
        raise ShapeError("inverse needs a square matrix")
    n = m.nrows
    p = m.p
    a = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k] % p != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular mod {p}")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
        inv_p = pow(a[k][k], p - 2, p)
        a[k] = [(x * inv_p) % p for x in a[k]]
        for i in range(n):
            if i == k or a[i][k] == 0:
                continue
            f = a[i][k]
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return from_rows([row[n:] for row in a], ncols=n, p=p)


# ---------------------------------------------------------------------------
# the multimodular characteristic polynomial, the route verify and product
# took to reciprocity before the Schur certificate


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients stored ascending by degree."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def is_reciprocal(p: IntPolynomial) -> bool:
    """True iff the coefficient list is palindromic, i.e. x^n p(1/x) = p(x)."""
    return p.coeffs == tuple(reversed(p.coeffs))


def reciprocal_sign(p: IntPolynomial) -> int | None:
    """Sign s with x^n p(1/x) = s*p(x), or None if neither sign works.

    Characteristic polynomials of squared connection Laplacians satisfy this
    with s = (-1)^n: the spectrum of L^2 is closed under inversion and has
    determinant 1, so the coefficient list is a palindrome up to that global
    sign.  Plain palindromicity (s = +1) fails whenever n is odd.
    """
    rev = tuple(reversed(p.coeffs))
    if p.coeffs == rev:
        return 1
    if p.coeffs == tuple(-c for c in rev):
        return -1
    return None


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - m).

    Multimodular: the polynomial is computed mod primes p < 2^31 by a
    Hessenberg reduction (_charpoly_mod) and the residues are combined by
    Chinese remaindering into symmetric residues until the modulus exceeds
    _coefficient_bound(m), twice a bound on every coefficient.  The result
    is certified exactly: p(r) must equal the Bareiss det(rI - m) at
    r = rho + 1, rho the largest absolute row sum, which lies outside the
    spectrum, or ArithmeticError is raised.
    """
    if not m.is_square():
        raise ShapeError("characteristic polynomial needs a square matrix")
    n = m.nrows
    if n == 0:
        return IntPolynomial((1,))
    rho = max(sum(abs(a) for _, a in row) for row in pairs(m))
    bound = _coefficient_bound(m)
    entries = m.to_array(object)
    coeffs = [0] * (n + 1)
    modulus = 1
    count = 0
    while modulus <= bound:
        p = _prime(count)
        count += 1
        residues = _charpoly_mod((entries % p).astype(np.int64), p)
        # Garner step: keep each coefficient mod `modulus`, make it agree mod p
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((int(x) - c) * inv % p) for c, x in zip(coeffs, residues)]
        modulus *= p
    half = modulus // 2
    poly = IntPolynomial(tuple(c - modulus if c > half else c for c in coeffs))
    r = rho + 1
    if poly(r) != det(linear_combination((IntMatrix.identity(n), r), (m, -1))):
        raise ArithmeticError("charpoly certificate p(r) == det(rI - m) failed")
    return poly


def _coefficient_bound(m: IntMatrix) -> int:
    """2 prod_i (1 + ceil(||row_i||_2)), at least twice every |coefficient| of
    det(xI - m): each is a signed sum of principal minors, which Hadamard's
    inequality bounds by their row norms.  A row norm never exceeds the row's
    absolute sum, so this is never above 2 (1 + rho)^n."""
    bound = 2
    for row in pairs(m):
        sq = sum(a * a for _, a in row)
        bound *= 2 + isqrt(sq - 1) if sq else 1
    return bound


def graeffe(p: IntPolynomial) -> IntPolynomial:
    """charpoly(m @ m) from p = charpoly(m), by Graeffe's root-squaring step:
    q(x^2) = (-1)^n p(x) p(-x) is monic of degree n with the squared roots."""
    alt = [-a if j % 2 else a for j, a in enumerate(p.coeffs)]
    even = np.convolve(np.array(p.coeffs, dtype=object), np.array(alt, dtype=object))[::2]
    return IntPolynomial(tuple(int(-x if p.degree % 2 else x) for x in even))


def _charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Ascending coefficients of det(xI - a) mod p, for a prime p < 2^31.

    `a` is a square int64 array with entries in 0..p-1; it is not modified.
    It is brought to upper Hessenberg form h by similarity (Cohen, A Course
    in Computational Algebraic Number Theory, section 2.2): each row
    operation is followed by its inverse column operation, a pivot swap
    swaps both rows and columns, and a column with no pivot below the
    subdiagonal is skipped.  Then the Hessenberg recurrence gives the
    charpoly p_m of each leading m-by-m block:
        p_m = (x - h_mm) p_(m-1)
              - sum_(i<m) h_im h_(m,m-1) ... h_(i+1,i) p_(i-1).
    A product of two residues is below 2^62 and is reduced before it enters
    any sum, so no int64 operation overflows.
    """
    h = a.copy()
    n = h.shape[0]
    for j in range(n - 2):
        nonzero = np.flatnonzero(h[j + 1 :, j])
        if nonzero.size == 0:
            continue
        piv = j + 1 + int(nonzero[0])
        if piv != j + 1:
            h[[j + 1, piv], :] = h[[piv, j + 1], :]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        u = h[j + 2 :, j] * pow(int(h[j + 1, j]), p - 2, p) % p
        # rows j+2.. -= u * row j+1 (columns before j are zero in all of them),
        # then column j+1 += columns j+2.. weighted by u
        h[j + 2 :, j:] = (h[j + 2 :, j:] - np.outer(u, h[j + 1, j:])) % p
        h[:, j + 1] = (h[:, j + 1] + (h[:, j + 2 :] * u % p).sum(axis=1)) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)  # row m: p_m, ascending
    polys[0, 0] = 1
    chain = np.zeros(0, dtype=np.int64)  # chain[i-1] = h_(m,m-1) ... h_(i+1,i)
    for m in range(1, n + 1):
        k = m - 1
        row = np.zeros(n + 1, dtype=np.int64)
        row[1 : m + 1] = polys[k, :m]
        row[:m] = (row[:m] - h[k, k] * polys[k, :m]) % p
        if k:
            chain = np.append(chain, 1) * h[k, k - 1] % p
            weights = h[:k, k] * chain % p
            row[:k] = (row[:k] - (polys[:k, :k] * weights[:, None] % p).sum(axis=0)) % p
        polys[m] = row
    return polys[n]


def strip_zero_root(p: IntPolynomial) -> tuple[int, tuple[int, ...]]:
    """Split a characteristic polynomial into (multiplicity of root 0, rest)."""
    coeffs = p.coeffs
    mult = 0
    while mult < len(coeffs) and coeffs[mult] == 0:
        mult += 1
    return mult, coeffs[mult:]


def supersymmetry_charpoly(bundle: OperatorBundle) -> SupersymmetryReport:
    """The report from the charpolys of H0, H1, |H0| and |H1|: the zero-root
    multiplicities are the kernel counts, and the stripped polynomials of
    each pair must be identical."""
    b0, b1 = betti_numbers(bundle.graph)
    k0, q0 = strip_zero_root(charpoly(bundle.hodge0))
    k1, q1 = strip_zero_root(charpoly(bundle.hodge1))
    sk0, sq0 = strip_zero_root(charpoly(bundle.hodge0_signless))
    sk1, sq1 = strip_zero_root(charpoly(bundle.hodge1_signless))
    return SupersymmetryReport(
        betti0=b0,
        betti1=b1,
        kernel0=k0,
        kernel1=k1,
        nonzero_match=q0 == q1,
        signless_kernel0=sk0,
        signless_kernel1=sk1,
        signless_nonzero_match=sq0 == sq1,
    )


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in r] for r in m.rows]
    r = 0
    for col in range(m.ncols):
        pivot = next((i for i in range(r, m.nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        for i in range(r + 1, m.nrows):
            if rows[i][col] != 0:
                factor = rows[i][col] * inv
                for j in range(col, m.ncols):
                    rows[i][j] -= factor * rows[r][j]
        r += 1
        if r == m.nrows:
            break
    return r


# ---------------------------------------------------------------------------
# the multimodular rank, the route supersymmetry_report took to the ranks of
# d and |d| before operators.forest_rank


def certified_rank(m: IntMatrix, kernel: Sequence[Sequence[int]] = ()) -> int:
    """Exact rank of m over the rationals, from its ranks mod word primes.

    A rank mod p never exceeds the rank over Q, so each prime gives a lower
    bound.  The nonzero vectors of `kernel` that m maps to zero, taken with
    pairwise disjoint supports, are independent, so they cap the rank at
    ncols minus their number; the search stops as soon as the two bounds
    meet.  Otherwise it stops once the product of the primes tried exceeds
    Hadamard's bound on m's minors, the root of the product of its squared
    row norms: a nonzero maximal minor is then nonzero mod one of them, so
    the best lower bound is the rank.
    """
    used: set[int] = set()
    upper = m.ncols
    for vec in kernel:
        support = {j for j, x in enumerate(vec) if x}
        if support and not support & used and not any(m.apply(vec)):
            used |= support
            upper -= 1
    bound = 1
    for row in pairs(m):
        bound *= sum(a * a for _, a in row) or 1
    entries = m.to_array(object)
    lower, modulus, count = 0, 1, 0
    while lower < upper and modulus * modulus <= bound:
        p = _prime(count)
        count += 1
        lower = max(lower, _rank_mod((entries % p).astype(np.int64), p))
        modulus *= p
    return lower


def _rank_mod(a: np.ndarray, p: int) -> int:
    """Rank mod p of an int64 array with entries in 0..p-1, by Gaussian
    elimination in place; each update touches only the rows below the pivot
    that are nonzero in its column."""
    nrows, ncols = a.shape
    r = 0
    for j in range(ncols):
        if r == nrows:
            break
        nonzero = np.flatnonzero(a[r:, j])
        if nonzero.size == 0:
            continue
        piv = r + int(nonzero[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        below = r + 1 + np.flatnonzero(a[r + 1 :, j])
        if below.size:
            f = a[below, j] * pow(int(a[r, j]), p - 2, p) % p
            a[below, j:] = (a[below, j:] - np.outer(f, a[r, j:]) % p) % p
        r += 1
    return r


_PRIMES: list[int] = []  # primes below 2^31 in descending order, grown by _prime


def _prime(i: int) -> int:
    """The i-th largest prime below 2^31 (i = 0 gives 2^31 - 1)."""
    while len(_PRIMES) <= i:
        q = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
        while not is_prime(q):
            q -= 2
        _PRIMES.append(q)
    return _PRIMES[i]


def component_vectors(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """For each component, its indicator vector and a +-1 colouring by
    breadth-first search that alternates along the search tree; the colouring
    is a two-colouring exactly when the component is bipartite."""
    neighbors = g.neighbors()
    indicators, colourings = [], []
    for component in connected_components(g):
        colour = [0] * g.n
        colour[component[0]] = 1
        queue = [component[0]]
        for x in queue:
            for y in neighbors[x]:
                if not colour[y]:
                    colour[y] = -colour[x]
                    queue.append(y)
        indicators.append([abs(c) for c in colour])
        colourings.append(colour)
    return indicators, colourings


def matpow(m: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power, k >= 0, by binary exponentiation."""
    if not m.is_square():
        raise ShapeError("power needs a square matrix")
    if k < 0:
        raise ValueError("negative powers are handled via exact inverses")
    result = IntMatrix.identity(m.nrows)
    base = m
    while k:
        if k & 1:
            result = dense_matmul(result, base)
        k >>= 1
        if k:
            base = dense_matmul(base, base)
    return result


def kwalk_through_connection(bundle: OperatorBundle, ks: Sequence[int]) -> dict[int, float]:
    """spectra.bound_kwalk by mat-vecs with the assembled L: A x = L x - x
    on Python ints, L having a unit diagonal, then the same k-th roots."""
    L = bundle.connection
    counts = np.ones(bundle.size, dtype=object)
    walks = {}
    for k in range(1, max(ks) + 1):
        counts = L.step(counts) - counts
        walks[k] = max(counts)
    out = {}
    for k in ks:
        r = 1.0 + math.exp(math.log(walks[k]) / k)
        out[k] = r - 1.0 / r
    return out


def quaternion_branch_rank(bundle: OperatorBundle) -> int:
    """Rank of the map from (psi0..psi3) to the states at times 0, 1, 2, 3.

    Full rank 4n means every solution arises from a unique branch quadruple.
    The map degenerates exactly on eigenvectors of L with eigenvalue +1 or
    -1 (the branch pairs collide there), and the deficiency is reported by
    this rank rather than hidden.
    """
    n = bundle.size
    L = bundle.connection
    Linv = bundle.green
    zero = IntMatrix.zeros(n, n)
    p = {0: IntMatrix.identity(n), 1: L, 2: matpow(L, 2), 3: matpow(L, 3)}
    q = {0: IntMatrix.identity(n), 1: Linv, 2: matpow(Linv, 2), 3: matpow(Linv, 3)}
    rows: list[list[int]] = []
    for t in range(4):
        blocks = (
            (p[t], q[t], zero, zero) if t % 2 == 0 else (zero, zero, p[t], q[t])
        )
        dense = [block.rows for block in blocks]
        for i in range(n):
            rows.append(dense[0][i] + dense[1][i] + dense[2][i] + dense[3][i])
    return rank(from_rows(rows))


def dense_kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product from the dense rows: row i*p+k is a[i][j] * b[k]
    for each column j of a in turn."""
    rows_b = b.rows
    return from_rows(
        [[x * y for x in row_a for y in row_b] for row_a in a.rows for row_b in rows_b],
        ncols=a.ncols * b.ncols,
    )


def intersection_rule_loop(a: Complex, b: Complex) -> IntMatrix:
    """L(A x B) cell pair by cell pair: the cells (x, y) in lexicographic
    factor order, and a 1 where both coordinates of two cells intersect."""
    cells = [(set(x), set(y)) for x in a.simplices for y in b.simplices]
    n = len(cells)
    cols, indptr = [], [0]
    for xa, ya in cells:
        cols.extend(j for j, (xb, yb) in enumerate(cells) if xa & xb and ya & yb)
        indptr.append(len(cols))
    return IntMatrix.from_csr(indptr, cols, np.ones(len(cols), dtype=np.int64), n, n)


def exact_jacobian_loop(bundle: OperatorBundle) -> IntMatrix:
    """J(L) entry by entry: row (k, l) and column (i, j), both upper-triangle
    coordinates of L's pattern read off its dense rows, hold -(direct +
    g[k][i] g[j][l] + g[k][j] g[i][l]), the second product only when i != j."""
    mask = bundle.connection.rows
    n = len(mask)
    coords = [(i, j) for i in range(n) for j in range(i, n) if mask[i][j]]
    ginv = bundle.green.rows
    cols = []
    for i, j in coords:
        col = []
        for k, l in coords:
            direct = 1 if (k, l) in ((i, j), (j, i)) else 0
            prop = ginv[k][i] * ginv[j][l]
            if i != j:
                prop += ginv[k][j] * ginv[i][l]
            col.append(-(direct + prop))
        cols.append(col)
    return from_rows(cols).transpose()


def edited(m: IntMatrix, entries: dict[tuple[int, int], int]) -> IntMatrix:
    """The matrix m with entry (i, j) set to entries[(i, j)]; m is unchanged."""
    rows = m.rows
    for (i, j), a in entries.items():
        rows[i][j] = a
    return from_rows(rows, ncols=m.ncols)


def _edited_dirac(dirac, signless: bool, edit):
    """A Dirac builder for mutation tests: dirac(d0) with edit(rows, v)
    applied to a copy of its list of rows, v the vertex count; applied only
    to the signless incidence when signless is set, else only to a signed
    one."""

    def build(d0: IntMatrix) -> IntMatrix:
        m = dirac(d0)
        if signless == any(a < 0 for row in pairs(d0) for _, a in row):
            return m
        rows = pairs(m)
        edit(rows, d0.ncols)
        return matrix_from_pairs(rows, m.ncols)

    return build


def negated_edge_row(dirac, signless: bool):
    """The Dirac builder with its first edge row negated, so it no longer
    agrees with the transposed block; this changes H0 and H1."""

    def negate(rows, v):
        rows[v] = [(j, -a) for j, a in rows[v]]

    return _edited_dirac(dirac, signless, negate)


def stray_vertex_entry(dirac, signless: bool):
    """The Dirac builder with a 1 at (0, 1), inside its zero vertex block.
    That block squares to zero, so H0 and H1 are still d^T d and d d^T, but
    the off-diagonal blocks of H pick up rows and columns of d."""

    def stray(rows, v):
        rows[0] = [(1, 1)] + rows[0]

    return _edited_dirac(dirac, signless, stray)


def _edited_certificate(forest_rank, signless: bool, edit):
    """forest_rank with edit(rows, forest) applied to a copy of the list of
    rows of the matrix it certifies, and the forest edit returns in place of
    the forest; applied only when certifying |d| if signless is set, else
    only when certifying d."""

    target = signless

    def certify(m: IntMatrix, forest, signless: bool = False):
        if signless == target:
            rows = pairs(m)
            forest = edit(rows, forest)
            m = matrix_from_pairs(rows, m.ncols)
        return forest_rank(m, forest, signless)

    return certify


def _first_forest_vertex(forest) -> int:
    """The non-root vertex earliest in search order."""
    return min((p, x) for x, p in enumerate(forest.position) if forest.parent_edge[x] is not None)[1]


def stray_forest_entry(forest_rank, signless: bool):
    """forest_rank handed a matrix whose first forest row also has a 1 in
    the column latest in search order, so the forest minor is not
    triangular."""

    def stray(rows, forest):
        x = _first_forest_vertex(forest)
        last = forest.position.index(len(forest.position) - 1)
        k = forest.parent_edge[x]
        rows[k] = sorted(rows[k] + [(last, 1)])
        return forest

    return _edited_certificate(forest_rank, signless, stray)


def zeroed_forest_pivot(forest_rank, signless: bool):
    """forest_rank handed a matrix whose first forest row has a 0 at the
    vertex it reaches, the pivot of the forest minor."""

    def zero(rows, forest):
        x = _first_forest_vertex(forest)
        k = forest.parent_edge[x]
        rows[k] = [(j, a) for j, a in rows[k] if j != x]
        return forest

    return _edited_certificate(forest_rank, signless, zero)


def _odd_joins(rows, forest) -> list[int]:
    """The rows off the forest that join two vertices of one colour."""
    forest_rows = set(forest.parent_edge)
    return [
        k for k, row in enumerate(rows)
        if k not in forest_rows and forest.colour[row[0][0]] == forest.colour[row[-1][0]]
    ]


def _resign(rows, k: int) -> None:
    """Negate the second entry of row k, so a row joining two vertices of
    one colour pairs to 0 with the colouring."""
    (a, x), (b, y) = rows[k]
    rows[k] = [(a, x), (b, -y)]


def resigned_odd_rows(forest_rank):
    """forest_rank handed a |d| whose rows off the forest that join two
    vertices of one colour have their second entry negated: each then pairs
    to 0 with the colouring, an even cycle passed off as odd, so no odd
    component has a row to lift the lower bound."""

    def resign(rows, forest):
        for k in _odd_joins(rows, forest):
            _resign(rows, k)
        return forest

    return _edited_certificate(forest_rank, True, resign)


def shared_odd_row(forest_rank):
    """forest_rank handed a |d| of a graph with two odd components, resigned
    as by resigned_odd_rows except for the first row that joins two vertices
    of one colour, which instead gets a 1 at the root of the last odd
    component.  That one row then pairs nonzero with both odd components,
    so it lifts the lower bound for neither."""

    def share(rows, forest):
        first, *rest = _odd_joins(rows, forest)
        for k in rest:
            _resign(rows, k)
        root = forest.component.index(max(forest.odd))
        rows[first] = sorted(rows[first] + [(root, 1)])
        return forest

    return _edited_certificate(forest_rank, True, share)


def broken_colouring(forest_rank):
    """forest_rank certifying |d| with a forest whose first non-root vertex
    has its colour flipped, so its forest row no longer maps the colouring
    to 0."""

    def flip(rows, forest):
        x = _first_forest_vertex(forest)
        colour = tuple(-c if y == x else c for y, c in enumerate(forest.colour))
        return replace(forest, colour=colour)

    return _edited_certificate(forest_rank, True, flip)


def diameter_bfs(g: Graph) -> int:
    """Graph diameter by one BFS from every vertex.  Raises on disconnected input."""
    if not is_connected(g):
        raise GraphError("diameter of a disconnected graph is infinite")
    nbr = g.neighbors()
    best = 0
    for start in range(g.n):
        dist = [-1] * g.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in nbr[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        best = max(best, max(dist))
    return best


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g (in lexicographic order); adjacency is
    sharing an endpoint."""
    m = g.e
    edges = []
    for i in range(m):
        a = set(g.edges[i])
        for j in range(i + 1, m):
            if a & set(g.edges[j]):
                edges.append((i, j))
    return Graph(max(m, 1), tuple(edges), f"line({g.name})" if g.name else "line")


def trajectory(states: dict[int, Sequence[int]]) -> Trajectory:
    """The Trajectory of states keyed by time, stacked once into rows; the
    times must be evenly spaced, as a Trajectory's range is."""
    times = sorted(states)
    span = range(times[0], times[-1] + 1, times[1] - times[0] if len(times) > 1 else 1)
    if list(span) != times:
        raise DynamicsError("states must be recorded at evenly spaced times")
    return Trajectory(np.array([list(states[n]) for n in times], dtype=object), span)


def combined_solution(branches: Sequence[Trajectory]) -> Trajectory:
    """Pointwise sum of the four branches on the times they share per parity."""
    states: dict[int, tuple] = {}
    for b in branches:
        for t, v in zip(b.times, b.states.tolist()):
            if t in states:
                states[t] = tuple(a + c for a, c in zip(states[t], v))
            else:
                states[t] = tuple(v)
    return trajectory(states)


def jacobi_ivp(habs: IntMatrix, initial: Sequence[Sequence[int]], n_min: int, n_max: int) -> Trajectory:
    """Solve the Jacobi equation from four consecutive states u(0)..u(3).

    The equation is a second-order recurrence on each time parity, so any
    quadruple of vectors extends uniquely to all of the requested range;
    this is the 4n-dimensional solution space, parameterized directly.
    """
    if len(initial) != 4:
        raise DynamicsError("need exactly u(0), u(1), u(2), u(3)")
    n = habs.nrows
    vecs = [tuple(int(x) for x in v) for v in initial]
    if any(len(v) != n for v in vecs):
        raise DynamicsError("initial vectors must match operator dimension")
    states: dict[int, tuple] = {i: vecs[i] for i in range(4)}

    def extend(t: int, d: int) -> tuple:
        # u(t) from u(t - 2d) and u(t - 4d): d = 1 forward, d = -1 backward
        mid, far = states[t - 2 * d], states[t - 4 * d]
        pulled = habs.apply(habs.apply(mid))
        return tuple(2 * mid[i] + pulled[i] - far[i] for i in range(n))

    for t in range(4, n_max + 1):
        states[t] = extend(t, 1)
    for t in range(-1, n_min - 1, -1):
        states[t] = extend(t, -1)
    for t in list(states):
        if t < n_min or t > n_max:
            del states[t]
    return trajectory(states)


def jacobi_residual_two_apply(t: Trajectory, habs: IntMatrix) -> int:
    """max over n of |psi(n+2) - 2 psi(n) + psi(n-2) - |H|(|H| psi(n))|_inf."""
    worst = None
    for n in t.times:
        if n + 2 not in t.times or n - 2 not in t.times:
            continue
        hi, mid, lo = t[n + 2], t[n], t[n - 2]
        pulled = habs.apply(habs.apply(mid))
        residual = max(abs(hi[i] - 2 * mid[i] + lo[i] - pulled[i]) for i in range(len(mid)))
        worst = residual if worst is None else max(worst, residual)
    if worst is None:
        raise DynamicsError("trajectory does not cover any n-2, n, n+2 triple")
    return worst


# ---------------------------------------------------------------------------
# dense builders: each operator written entry by entry into n x n lists of
# ints, the route operators replaced by writing the nonzeros directly


def dense_incidence_signed(c: Complex, signs=None) -> IntMatrix:
    if signs is None:
        signs = (1,) * c.e
    rows = []
    for s, (a, b) in zip(signs, c.graph.edges):
        row = [0] * c.v
        row[a] = -s
        row[b] = s
        rows.append(row)
    return from_rows(rows, ncols=c.v)


def dense_abs(m: IntMatrix) -> IntMatrix:
    return from_rows([[abs(a) for a in r] for r in m.rows], ncols=m.ncols)


def dense_dirac(d0: IntMatrix) -> IntMatrix:
    v, e = d0.ncols, d0.nrows
    d = d0.rows
    rows = [[0] * (v + e) for _ in range(v + e)]
    for k in range(e):
        for x in range(v):
            rows[x][v + k] = d[k][x]
            rows[v + k][x] = d[k][x]
    return from_rows(rows, ncols=v + e)


def dense_hodge(d0: IntMatrix) -> IntMatrix:
    """D @ D for D = [[0, d0^T], [d0, 0]]: the blocks d0^T d0 and d0 d0^T."""
    v, e = d0.ncols, d0.nrows
    d = d0.rows
    rows = [[0] * (v + e) for _ in range(v + e)]
    for x in range(v):
        for y in range(v):
            rows[x][y] = sum(d[k][x] * d[k][y] for k in range(e))
    for k in range(e):
        for l in range(e):
            rows[v + k][v + l] = sum(a * b for a, b in zip(d[k], d[l]))
    return from_rows(rows, ncols=v + e)


def dense_connection(c: Complex) -> IntMatrix:
    """L(x,y) = 1 iff the simplices x and y intersect, pair by pair."""
    return from_rows(
        [[int(simplices_intersect(x, y)) for y in c.simplices] for x in c.simplices],
        ncols=c.size,
    )


def dense_green_star(c: Complex) -> IntMatrix:
    n = c.size
    w = [parity(s) for s in c.simplices]
    rows = [[0] * n for _ in range(n)]
    for t, s in enumerate(c.simplices):
        faces = [c.index[(a,)] for a in s] if len(s) == 2 else []
        faces.append(t)
        chi = parity(s)
        for x in faces:
            for y in faces:
                rows[x][y] += w[x] * w[y] * chi
    return from_rows(rows, ncols=n)


def degrees(g: Graph) -> list[int]:
    """The vertex degrees, counted edge by edge: the oracle for the bundle's
    bincount."""
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def dense_kirchhoff(g: Graph) -> IntMatrix:
    deg = degrees(g)
    rows = [[0] * g.n for _ in range(g.n)]
    for i in range(g.n):
        rows[i][i] = deg[i]
    for a, b in g.edges:
        rows[a][b] -= 1
        rows[b][a] -= 1
    return from_rows(rows, ncols=g.n)


def dense_hydrogen_residual(bundle: OperatorBundle) -> IntMatrix:
    """|H| - (L - g), entry by entry from the dense rows."""
    n = bundle.size
    h, L, g = bundle.hodge_signless.rows, bundle.connection.rows, bundle.green.rows
    return from_rows(
        [[h[i][j] - L[i][j] + g[i][j] for j in range(n)] for i in range(n)], ncols=n
    )


def spectral_function(spec: Spectrum):
    """The step function F(x) = lambda_ceil(n x) on (0, 1]."""
    if spec.matrix_dim == 0:
        raise SpectraError("empty spectrum has no spectral function")
    eigs = spec.eigenvalues
    n = spec.matrix_dim

    def f(x: float) -> float:
        if not 0.0 < x <= 1.0:
            raise SpectraError(f"spectral function argument {x} outside (0, 1]")
        return eigs[math.ceil(n * x) - 1]

    return f


def limit_profile(x: float) -> float:
    """The barycentric limit profile 4 sin^2(pi x / 2) of cycle Kirchhoff spectra."""
    s = math.sin(math.pi * x / 2.0)
    return 4.0 * s * s


def spectral_function_sup_distance(spec: Spectrum) -> float:
    """sup_j |F(j/n) - limit_profile(j/n)| over the natural sample grid."""
    f = spectral_function(spec)
    n = spec.matrix_dim
    return max(abs(f(j / n) - limit_profile(j / n)) for j in range(1, n + 1))


def limit_functional_equation_residual(samples: int = 100) -> float:
    """max |F(2x) - F(x)(4 - F(x))| for the limit profile at sampled x.

    The doubling identity is exact for 4 sin^2(pi x / 2); the residual here
    is pure floating-point roundoff.
    """
    worst = 0.0
    for j in range(1, samples + 1):
        x = j / (2.0 * samples)
        fx = limit_profile(x)
        worst = max(worst, abs(limit_profile(2.0 * x) - fx * (4.0 - fx)))
    return worst


# ---------------------------------------------------------------------------
# certified eigenvalues from the exact characteristic polynomial
#
# Sturm chains decide exactly how many real roots a square-free rational
# polynomial has in an interval, so bisection gives eigenvalue enclosures
# with no floating-point trust anywhere.  Multiplicities come from peeling
# gcd(p, p') layers.  Degrees reach 27 in the validation suite.


def _fpoly(coeffs: Sequence[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _fpoly_deriv(p: Sequence[Fraction]) -> list[Fraction]:
    return _fpoly([c * k for k, c in enumerate(p)][1:])


def _fpoly_rem(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _fpoly(a):
        a = _fpoly(a)
        if len(a) - 1 < db:
            break
        q = a[-1] / lb
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _fpoly(a)
    return _fpoly(a)


def _fpoly_monic(p: Sequence[Fraction]) -> list[Fraction]:
    p = _fpoly(p)
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def _fpoly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = _fpoly(a), _fpoly(b)
    while b:
        a, b = b, _fpoly_rem(a, b)
    return _fpoly_monic(a)


def _fpoly_div_exact(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = _fpoly(a), _fpoly(b)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and _fpoly(a):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _fpoly(a)
    if _fpoly(a):
        raise ArithmeticError("polynomial division was not exact")
    return _fpoly(out)


def _sturm_chain(p: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [_fpoly(p), _fpoly_deriv(p)]
    while chain[-1]:
        rem = _fpoly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _primitive(p: Sequence[Fraction]) -> list[int]:
    """p times the positive rational that makes it a primitive integer
    polynomial; a positive factor keeps the sign of every value."""
    scale = lcm(*(c.denominator for c in p))
    ints = [int(c * scale) for c in p]
    g = gcd(*ints)
    return [c // g for c in ints]


def _sign_variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    """Sign changes along the integer chain at x = num/den, each member p of
    degree d evaluated as den^d p(num/den) by integer Horner: den > 0, so
    that has the sign of p(x)."""
    num, den = x.numerator, x.denominator
    signs = []
    for p in chain:
        acc, power = p[-1], 1
        for c in reversed(p[:-1]):
            power *= den
            acc = acc * num + c * power
        if acc:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_squarefree(p: list[Fraction], precision: Fraction) -> list[Fraction]:
    """All real roots of a square-free polynomial, each within precision."""
    if len(p) <= 1:
        return []
    chain = [_primitive(q) for q in _sturm_chain(p)]
    bound = Fraction(1) + max(abs(c) for c in p[:-1]) / abs(p[-1])
    roots: list[Fraction] = []

    def count(a: Fraction, b: Fraction) -> int:
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    stack = [(-bound, bound, count(-bound, bound))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1 and b - a < precision:
            roots.append((a + b) / 2)
            continue
        mid = (a + b) / 2
        # roots are counted in half-open intervals (a, b]; a root exactly at
        # the midpoint is captured by the left half
        left = count(a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, k - left))
    return sorted(roots)


def exact_root_multiset(p: IntPolynomial, precision: Fraction = Fraction(1, 10**9)) -> list[float]:
    """Real roots of p with multiplicity, sorted, certified by Sturm counts.

    Layers of gcd(p, p') carry the repeated roots, so the recursion returns
    each root as many times as its multiplicity.  For characteristic
    polynomials of symmetric integer matrices all roots are real, which the
    caller can confirm by comparing len(result) with the degree.
    """
    coeffs = [Fraction(c) for c in p.coeffs]

    def rec(q: list[Fraction]) -> list[float]:
        q = _fpoly(q)
        if len(q) <= 1:
            return []
        deriv = _fpoly_deriv(q)
        g = _fpoly_gcd(q, deriv)
        squarefree = _fpoly_div_exact(q, g) if len(g) > 1 else _fpoly_monic(q)
        found = [float(r) for r in _roots_squarefree(squarefree, precision)]
        if len(g) > 1:
            found.extend(rec(g))
        return found

    return sorted(rec(coeffs))


def validate_spectrum_against_charpoly(m: IntMatrix, tol: float = 1e-6) -> float:
    """Compare eig_sym(m) with certified charpoly roots; return the worst gap.

    Raises if the multiset sizes differ or any eigenvalue is further than
    tol from its certified partner.
    """
    spec = eig_sym(m)
    roots = exact_root_multiset(charpoly(m))
    if len(roots) != spec.matrix_dim:
        raise SpectraError(
            f"charpoly yielded {len(roots)} real roots for dimension {spec.matrix_dim}"
        )
    worst = max(
        (abs(a - b) for a, b in zip(spec.eigenvalues, roots)),
        default=0.0,
    )
    if worst > tol:
        raise SpectraError(
            f"eigensolver disagrees with certified roots by {worst:.3e}"
        )
    return worst


# ---------------------------------------------------------------------------
# operator cocycles


@dataclass(frozen=True)
class EnvironmentSequence:
    """Operator indices omega(1), omega(2), ... over a registry of equal-size L's."""

    indices: tuple[int, ...]
    registry: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        if not self.registry:
            raise DynamicsError("environment registry is empty")
        n = self.registry[0].nrows
        if any(m.nrows != n or m.ncols != n for m in self.registry):
            raise DynamicsError("registered operators must share dimensions")
        if any(not 0 <= i < len(self.registry) for i in self.indices):
            raise DynamicsError("environment index out of range")

    @property
    def dimension(self) -> int:
        return self.registry[0].nrows


@dataclass(frozen=True)
class CocycleReport:
    """Lyapunov estimate of an operator product, with the normalized tail state."""

    lyapunov: float
    steps: int
    final_state: tuple[float, ...]
    log_norms: tuple[float, ...]


def cocycle(
    env: EnvironmentSequence,
    psi0: Sequence[float],
    n_steps: int,
    renorm_every: int = 16,
) -> CocycleReport:
    """Apply L_omega(n) ... L_omega(1) psi0 and estimate the Lyapunov exponent.

    Entries grow like rho^n, so the state is renormalized by its max norm
    every renorm_every steps and the discarded scale factors accumulate in
    log space; the estimate is (sum of logs + log of the final norm) / n.
    """
    if len(env.indices) < n_steps:
        raise DynamicsError(f"environment supplies {len(env.indices)} steps, need {n_steps}")
    x = np.asarray(psi0, dtype=float)
    if x.shape != (env.dimension,):
        raise DynamicsError("initial vector does not match registry dimension")
    mats = [m.to_float() for m in env.registry]
    log_acc = 0.0
    log_norms = []
    for t in range(n_steps):
        x = mats[env.indices[t]] @ x
        if (t + 1) % renorm_every == 0:
            m = float(np.max(np.abs(x)))
            if m == 0.0:
                raise DynamicsError("state collapsed to zero; Lyapunov undefined")
            x /= m
            log_acc += math.log(m)
            log_norms.append(log_acc)
    tail = float(np.max(np.abs(x)))
    if tail == 0.0:
        raise DynamicsError("state collapsed to zero; Lyapunov undefined")
    lyap = (log_acc + math.log(tail)) / n_steps
    return CocycleReport(lyap, n_steps, tuple(map(float, x)), tuple(log_norms))


def constant_environment(L: IntMatrix, n_steps: int) -> EnvironmentSequence:
    return EnvironmentSequence(tuple([0] * n_steps), (L,))


# ---------------------------------------------------------------------------
# the command-line parser, one subcommand at a time


def reference_parser() -> argparse.ArgumentParser:
    """Every subcommand's parser, each written out by hand with only the
    flags its handler reads, under a connlab parser with no flags of its
    own; args.fn is the handler the subcommand runs."""
    parser = cli._Parser(
        prog="connlab",
        description="Connection Laplacian workbench: exact identities, "
        "spectral bounds, reversible dynamics.",
    )
    formats = ("json", "csv", "pretty")
    dumpable = sorted(cli._DUMPABLE)
    dump_help = "print the named operator matrix"
    state_help = "comma-separated initial state (default: unit vector)"

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact identity checks on one graph")
    p.add_argument("--format", choices=formats, default="pretty")
    p.add_argument("--dump", metavar="OPERATOR", choices=dumpable, help=dump_help)
    p.add_argument("graph")
    p.add_argument("--field", type=cli._field_prime, help="also check the identity mod this prime")
    p.set_defaults(fn=cli.cmd_verify)

    p = sub.add_parser("bounds", help="bound table rows for one or more graphs")
    p.add_argument("--format", choices=formats, default="pretty")
    p.add_argument("--dump", metavar="OPERATOR", choices=dumpable, help=dump_help)
    p.add_argument("graphs", nargs="+")
    p.set_defaults(fn=cli.cmd_bounds)

    p = sub.add_parser("spectrum", help="eigenvalues of one operator")
    p.add_argument("--format", choices=formats, default="pretty")
    p.add_argument("--dump", metavar="OPERATOR", choices=dumpable, help=dump_help)
    p.add_argument("graph")
    p.add_argument("--operator", choices=sorted(set(dumpable) - {"g", "d0", "kirchhoff"}), default="L")
    p.set_defaults(fn=cli.cmd_spectrum)

    p = sub.add_parser("walk", help="exact two-sided walk, one JSON line per time")
    p.add_argument("--dump", metavar="OPERATOR", choices=dumpable, help=dump_help)
    p.add_argument("graph")
    p.add_argument("--steps", type=cli._count, default=6)
    p.add_argument("--reverse", action="store_true", help="also walk backward and check the round trip")
    p.add_argument("--state", help=state_help)
    p.set_defaults(fn=cli.cmd_walk)

    p = sub.add_parser("automaton", help="reversible walk over a prime field")
    p.add_argument("--dump", metavar="OPERATOR", choices=dumpable, help=dump_help)
    p.add_argument("graph")
    p.add_argument("--field", type=cli._field_prime, required=True)
    p.add_argument("--steps", type=cli._count, default=6)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--state", help=state_help)
    p.set_defaults(fn=cli.cmd_automaton)

    p = sub.add_parser("newton", help="solve the perturbed relation K = L - 1/L")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("graph")
    p.add_argument("--eps", type=cli._eps, default=0.01)
    p.add_argument("--tol", type=cli._tol, default=1e-10)
    p.add_argument("--max-iter", type=cli._count, default=50)
    p.set_defaults(fn=cli.cmd_newton)

    p = sub.add_parser("product", help="strong-product checks for two graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(fn=cli.cmd_product)

    p = sub.add_parser("report", help="regenerate every reference table")
    p.add_argument("--format", choices=formats, default="pretty")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cli.cmd_report)

    return parser
