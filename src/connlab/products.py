"""Strong products of complexes at the operator level.

The product of two complexes is represented by its cells (pairs of
simplices) rather than as a simplicial complex, because it is not one.  Two
cells intersect iff both coordinates intersect, which makes the product
connection Laplacian a Kronecker product:

    L(A x B) = L(A) (x) L(B)        spectra multiply
    H(A x B) = H(A) (x) I + I (x) H(B)   spectra add

product_connection, product_hodge, two_time_walk, spectral_errors and
product_checks take the two factors' OperatorBundles.
product_checks verifies both: once per product, the Kronecker assembly is
compared entry by entry against connection_by_intersection, an independent
construction from the factors' shared-vertex pairs, and the spectra are
compared against pairwise products and sums.  charpoly(L^2) is reciprocal
with sign (-1)^(n_A n_B) once both factors pass their bundle's Schur
certificate (OperatorBundle.reciprocity_sign), since the squared product
spectrum is the pairwise products of two inversion-closed ones.
The product inverse is kron(g_A, g_B) of the factors' certified Green
matrices, itself certified by the sparse product L @ X = I.
The energy theorem survives the product (the total sum of L^-1 entries is
chi(A) chi(B)), but the hydrogen identity does not, and product_checks
reports that failure as a measured nonzero residual rather than hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexes import Complex
from .dynamics import _powers
from .exact import IntMatrix
from .operators import OperatorBundle, _is_inverse
from .spectra import eig_sym


class ProductError(ValueError):
    pass


def _shared_vertex_pairs(c: Complex) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of simplex indices whose simplices share a vertex,
    once per shared vertex, read off the simplices' vertex sets."""
    members: list[list[int]] = [[] for _ in range(c.v)]
    for k, simplex in enumerate(c.simplices):
        for x in simplex:
            members[x].append(k)
    i = [a for m in members for a in m for _ in m]
    j = [b for m in members for _ in m for b in m]
    return np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)


def connection_by_intersection(a: Complex, b: Complex) -> IntMatrix:
    """L(A x B) built directly from the cell intersection rule, with cell
    (i, j) at index i * size(B) + j, the Kronecker convention, so it and
    kron(L_A, L_B) compare entry by entry.

    Cells (x, y) and (x', y') intersect exactly when x and x' share a
    vertex and y and y' do, so the entries are the pairs of a shared pair
    of A and one of B; a pair of cells met more than once (two simplices
    sharing both vertices) is summed, then set to 1.
    """
    ia, ja = _shared_vertex_pairs(a)
    ib, jb = _shared_vertex_pairs(b)
    nb, n = b.size, a.size * b.size
    rows = (ia[:, None] * nb + ib).ravel()
    cols = (ja[:, None] * nb + jb).ravel()
    ones = np.ones(len(rows), dtype=np.int64)
    indptr, cols, _ = IntMatrix.from_triplets(rows, cols, ones, n, n).csr
    return IntMatrix.from_csr(indptr, cols, np.ones(len(cols), dtype=np.int64), n, n)


def product_connection(ba: OperatorBundle, bb: OperatorBundle) -> IntMatrix:
    """L(A x B) = L(A) (x) L(B); product_checks compares it with the
    intersection rule."""
    return ba.connection.kron(bb.connection)


def product_hodge(ba: OperatorBundle, bb: OperatorBundle) -> IntMatrix:
    """H(A x B) = H(A) (x) I + I (x) H(B)."""
    ia = IntMatrix.identity(ba.size)
    ib = IntMatrix.identity(bb.size)
    return ba.hodge.kron(ib) + ia.kron(bb.hodge)


def two_time_walk(
    ba: OperatorBundle, bb: OperatorBundle, psi0: Sequence[int], times: tuple[int, int]
) -> tuple[int, ...]:
    """(L_A (x) I)^n (I (x) L_B)^m psi0, exact, negative times via the green.

    The state is an na x nb array S in cell order, so L_A (x) I maps it to
    L_A S and I (x) L_B to S L_B^T = (L_B S^T)^T: each power steps the whole
    block over the nonzero entries of L, or of the factor's certified g for a
    negative time.  The two factors commute, so one order serves.
    """
    n, m = times
    na, nb = ba.size, bb.size
    if len(psi0) != na * nb:
        raise ProductError(f"state has length {len(psi0)}, expected {na * nb}")
    start = np.array([int(x) for x in psi0], dtype=object).reshape(na, nb)
    return tuple(_powers(ba, n, _powers(bb, m, start.T).T).ravel().tolist())


@dataclass(frozen=True)
class ProductReport:
    """Everything product_checks measures for one factor pair."""

    size: int
    energy_value: int
    energy_expected: int
    charpoly_sign: int | None
    hydrogen_residual_max: int
    det_value: int
    multiplicativity_error: float
    additivity_error: float

    @property
    def energy_ok(self) -> bool:
        return self.energy_value == self.energy_expected

    @property
    def reciprocity_ok(self) -> bool:
        return self.charpoly_sign is not None

    @property
    def hydrogen_fails(self) -> bool:
        return self.hydrogen_residual_max != 0

    @property
    def det_ok(self) -> bool:
        return self.det_value in (-1, 1)


def _pairwise(values_a: Sequence[float], values_b: Sequence[float], op) -> list[float]:
    return sorted(op(x, y) for x in values_a for y in values_b)


def spectral_errors(
    ba: OperatorBundle, bb: OperatorBundle, L: IntMatrix, H: IntMatrix
) -> tuple[float, float]:
    """(multiplicativity error, additivity error) for one factor pair, whose
    product connection matrix is L and product Hodge operator H."""
    la = eig_sym(ba.connection).eigenvalues
    lb = eig_sym(bb.connection).eigenvalues
    ha = eig_sym(ba.hodge).eigenvalues
    hb = eig_sym(bb.hodge).eigenvalues
    prod_spec = eig_sym(L).eigenvalues
    sum_spec = eig_sym(H).eigenvalues
    mult_err = max(
        abs(x - y) for x, y in zip(prod_spec, _pairwise(la, lb, lambda s, t: s * t))
    )
    add_err = max(
        abs(x - y) for x, y in zip(sum_spec, _pairwise(ha, hb, lambda s, t: s + t))
    )
    return mult_err, add_err


def product_checks(ba: OperatorBundle, bb: OperatorBundle) -> ProductReport:
    """Energy, reciprocity, determinant, spectra, and the hydrogen failure.

    The product inverse is kron(g_A, g_B), certified against the assembled
    product by the sparse L @ X = I before anything reads it; only
    then is L compared, once, with the intersection-rule construction over
    the product cells.  det L is det(L_A)^n_B det(L_B)^n_A from the factors'
    Schur-complement determinants, and the reciprocity sign (-1)^(n_A n_B)
    holds once both factors pass their Schur reciprocity certificate.  The
    tests keep elimination, Bareiss and the charpoly on the product as the
    oracles for the inverse, the determinant and the sign.
    """
    L = product_connection(ba, bb)
    linv = ba.green.kron(bb.green)
    if not _is_inverse(L, linv):
        raise ProductError(
            "product inverse is not an integer matrix: kron(g_A, g_B) fails L @ X = I"
        )
    if L != connection_by_intersection(ba.complex, bb.complex):
        raise ProductError(
            "Kronecker product disagrees with the intersection-rule construction"
        )
    chi_a = ba.complex.v - ba.complex.e
    chi_b = bb.complex.v - bb.complex.e
    certified = all(x.reciprocity_sign is not None for x in (ba, bb))
    sign = (-1 if L.nrows % 2 else 1) if certified else None
    H = product_hodge(ba, bb)
    # a product has no canonical signless Hodge operator; |H| entrywise is
    # the natural candidate, and the hydrogen identity measurably fails for it
    residual = (L - linv - H.abs()).max_abs()
    mult_err, add_err = spectral_errors(ba, bb, L, H)
    return ProductReport(
        size=L.nrows,
        energy_value=linv.entry_sum(),
        energy_expected=chi_a * chi_b,
        charpoly_sign=sign,
        hydrogen_residual_max=residual,
        det_value=ba.connection_det**bb.size * bb.connection_det**ba.size,
        multiplicativity_error=mult_err,
        additivity_error=add_err,
    )
