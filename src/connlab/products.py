"""Strong products of complexes at the operator level.

The product of two complexes is represented by its cells (pairs of
simplices) rather than as a simplicial complex, because it is not one.  Two
cells intersect iff both coordinates intersect, which makes the product
connection Laplacian a Kronecker product:

    L(A x B) = L(A) (x) L(B)        spectra multiply
    H(A x B) = H(A) (x) I + I (x) H(B)   spectra add

Both identities are verified here two ways: the Kronecker assembly is
compared entry by entry against an independent intersection-rule
construction over the cells, and the spectra are compared against pairwise
products and sums.  The energy theorem survives the product (the total sum
of L^-1 entries is chi(A) chi(B), checked with an independent integer
inverse of the assembled product by elimination), but the hydrogen identity does not, and product_checks reports
that failure as a measured nonzero residual rather than hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import Complex, Simplex, build_complex
from .exact import IntMatrix, charpoly, det, inverse_unimodular, matpow, reciprocal_sign
from .graphs import Graph
from .operators import OperatorBundle, bundle_for
from .spectra import eig_sym


class ProductError(ValueError):
    pass


def _bundle(source: Graph | Complex | OperatorBundle) -> OperatorBundle:
    if isinstance(source, OperatorBundle):
        return source
    return bundle_for(source)


@dataclass(frozen=True)
class ProductComplex:
    """Cell labeling of A x B: pairs (x, y) in lexicographic factor order.

    Cell index (i, j) -> i * size(B) + j, matching the Kronecker convention,
    so the intersection-rule matrix below and kron(L_A, L_B) are comparable
    entry by entry.
    """

    factor_a: Complex
    factor_b: Complex

    @property
    def cells(self) -> tuple[tuple[Simplex, Simplex], ...]:
        return tuple(
            (x, y) for x in self.factor_a.simplices for y in self.factor_b.simplices
        )

    @property
    def size(self) -> int:
        return self.factor_a.size * self.factor_b.size

    def connection_by_intersection(self) -> IntMatrix:
        """L(A x B) built directly from the cell intersection rule."""
        cells = self.cells
        n = len(cells)
        rows = [[0] * n for _ in range(n)]
        for i, (xa, ya) in enumerate(cells):
            sa, sb = set(xa), set(ya)
            for j, (xb, yb) in enumerate(cells):
                if sa & set(xb) and sb & set(yb):
                    rows[i][j] = 1
        return IntMatrix(rows)


def product_complex(a: Graph | Complex, b: Graph | Complex) -> ProductComplex:
    ca = a if isinstance(a, Complex) else build_complex(a)
    cb = b if isinstance(b, Complex) else build_complex(b)
    return ProductComplex(ca, cb)


def product_connection(a: Graph | Complex | OperatorBundle, b) -> IntMatrix:
    """L(A x B) = L(A) (x) L(B), cross-checked against the intersection rule."""
    ba, bb = _bundle(a), _bundle(b)
    kron = ba.connection.kron(bb.connection)
    direct = ProductComplex(ba.complex, bb.complex).connection_by_intersection()
    if kron.rows != direct.rows:
        raise ProductError(
            "Kronecker product disagrees with the intersection-rule construction"
        )
    return kron


def product_hodge(a: Graph | Complex | OperatorBundle, b) -> IntMatrix:
    """H(A x B) = H(A) (x) I + I (x) H(B)."""
    ba, bb = _bundle(a), _bundle(b)
    ia = IntMatrix.identity(ba.size)
    ib = IntMatrix.identity(bb.size)
    return ba.hodge.kron(ib) + ia.kron(bb.hodge)


def product_hodge_signless(a, b) -> IntMatrix:
    """Entrywise absolute value of product_hodge.

    The product operators have no canonical signless Hodge operator; this
    is the natural candidate, and the hydrogen identity measurably fails
    for it (see product_checks).
    """
    return product_hodge(a, b).abs()


def two_time_walk(
    L_a: IntMatrix, L_b: IntMatrix, psi0: Sequence[int], times: tuple[int, int]
) -> tuple[int, ...]:
    """(L_A (x) I)^n (I (x) L_B)^m psi0, exact, negative times via inverses.

    The two factors commute, so the application order cannot matter; both
    orders are computed and compared before returning.
    """
    n, m = times
    na, nb = L_a.nrows, L_b.nrows
    start = tuple(int(x) for x in psi0)
    if len(start) != na * nb:
        raise ProductError(f"state has length {len(start)}, expected {na * nb}")

    def power(mat: IntMatrix, k: int) -> IntMatrix:
        if k >= 0:
            return matpow(mat, k)
        return matpow(inverse_unimodular(mat), -k)

    ka = power(L_a, n).kron(IntMatrix.identity(nb))
    kb = IntMatrix.identity(na).kron(power(L_b, m))
    one_way = ka.apply(kb.apply(start))
    other_way = kb.apply(ka.apply(start))
    if one_way != other_way:
        raise ProductError("two-time factors failed to commute")
    return one_way


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


def spectral_errors(a, b, tol: float = 1e-10) -> tuple[float, float]:
    """(multiplicativity error, additivity error) for one factor pair."""
    ba, bb = _bundle(a), _bundle(b)
    la = eig_sym(ba.connection, tol).eigenvalues
    lb = eig_sym(bb.connection, tol).eigenvalues
    ha = eig_sym(ba.hodge, tol).eigenvalues
    hb = eig_sym(bb.hodge, tol).eigenvalues
    prod_spec = eig_sym(product_connection(ba, bb), tol).eigenvalues
    sum_spec = eig_sym(product_hodge(ba, bb), tol).eigenvalues
    mult_err = max(
        abs(x - y) for x, y in zip(prod_spec, _pairwise(la, lb, lambda s, t: s * t))
    )
    add_err = max(
        abs(x - y) for x, y in zip(sum_spec, _pairwise(ha, hb, lambda s, t: s + t))
    )
    return mult_err, add_err


def product_checks(a: Graph | Complex | OperatorBundle, b) -> ProductReport:
    """Energy, reciprocity, determinant, spectra, and the hydrogen failure.

    The energy sum uses an independent integer inverse of the assembled
    product matrix by elimination, not the Kronecker product of the factor
    inverses, so the theorem is tested rather than restated.
    """
    ba, bb = _bundle(a), _bundle(b)
    L = product_connection(ba, bb)
    try:
        linv = inverse_unimodular(L)
    except ValueError as exc:
        raise ProductError(f"product inverse is not an integer matrix: {exc}") from exc
    chi_a = ba.complex.v - ba.complex.e
    chi_b = bb.complex.v - bb.complex.e
    sign = reciprocal_sign(charpoly(L @ L))
    habs = product_hodge_signless(ba, bb)
    residual = (L - linv - habs).max_abs()
    mult_err, add_err = spectral_errors(ba, bb)
    return ProductReport(
        size=L.nrows,
        energy_value=linv.entry_sum(),
        energy_expected=chi_a * chi_b,
        charpoly_sign=sign,
        hydrogen_residual_max=residual,
        det_value=det(L),
        multiplicativity_error=mult_err,
        additivity_error=add_err,
    )
