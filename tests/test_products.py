"""Strong ring products: Kronecker structure, energy, spectra, and the
failure of the hydrogen identity on nontrivial products."""

import pytest

import connlab.products as products
from connlab.exact import IntMatrix, det
from connlab.graphs import from_spec
from connlab.operators import OperatorBundle, bundle_for
from connlab.products import (
    ProductError,
    connection_by_intersection,
    product_checks,
    product_connection,
    product_hodge,
    spectral_errors,
    two_time_walk,
)
from oracles import (
    charpoly,
    dense_kron,
    edited,
    graeffe,
    intersection_rule_loop,
    inverse_unimodular,
    matpow,
    pairs,
    reciprocal_sign,
)

PAIRS = [
    ("complete:2", "complete:2"),
    ("complete:2", "cycle:4"),
    ("path:3", "path:4"),
    ("cycle:3", "cycle:5"),
    ("star:3", "path:4"),
    ("complete:2", "figure8"),
    ("path:2", "path:5"),
    ("star:4", "cycle:3"),
    ("complete:3", "complete:3"),
    ("path:3", "star:3"),
]


@pytest.mark.parametrize("sa, sb", PAIRS)
def test_product_connection_two_routes(sa, sb):
    # the Kronecker product of the factors must equal the connection matrix
    # built directly from the intersection rule on product cells
    ba, bb = bundle_for(from_spec(sa)), bundle_for(from_spec(sb))
    L = product_connection(ba, bb)
    assert L.nrows == ba.size * bb.size
    rule = connection_by_intersection(ba.complex, bb.complex)
    assert L == rule
    # the rule read off the factors' shared-vertex pairs, against the loop
    # over every pair of product cells
    assert rule == intersection_rule_loop(ba.complex, bb.complex)


@pytest.mark.parametrize("sa, sb", PAIRS)
def test_kron_matches_the_dense_kron_on_the_factor_operators(sa, sb):
    # the pairs behind L, kron(g_A, g_B) and both terms of H(A x B)
    ba, bb = bundle_for(from_spec(sa)), bundle_for(from_spec(sb))
    ia, ib = IntMatrix.identity(ba.size), IntMatrix.identity(bb.size)
    for name, a, b in (
        ("connection", ba.connection, bb.connection),
        ("green", ba.green, bb.green),
        ("hodge (x) I", ba.hodge, ib),
        ("I (x) hodge", ia, bb.hodge),
    ):
        got, want = a.kron(b), dense_kron(a, b)
        assert got.shape == want.shape == (ba.size * bb.size,) * 2, name
        assert got.rows == want.rows, name
        assert pairs(got) == pairs(want), name


@pytest.mark.parametrize("sa, sb", PAIRS)
def test_product_energy_multiplicative(sa, sb):
    a, b = from_spec(sa), from_spec(sb)
    ba, bb = bundle_for(a), bundle_for(b)
    L = product_connection(ba, bb)
    g = inverse_unimodular(L)
    chi_a = a.n - a.e
    chi_b = b.n - b.e
    assert g.entry_sum() == chi_a * chi_b
    assert det(L) in (-1, 1)
    # elimination on the product is the oracle for product_checks' kron(g_A, g_B)
    assert ba.green.kron(bb.green) == g
    rep = product_checks(ba, bb)
    assert rep.energy_value == g.entry_sum()
    # the product det comes from the factors; Bareiss on the product is its oracle
    assert rep.det_value == det(L)
    # so does the reciprocity sign; the charpoly of the product is its oracle
    assert rep.charpoly_sign == reciprocal_sign(graeffe(charpoly(L))) == (-1) ** (L.nrows % 2)
    assert rep.hydrogen_residual_max == (L - g - product_hodge(ba, bb).abs()).max_abs()


def test_product_hodge_additive_structure():
    a, b = bundle_for(from_spec("complete:2")), bundle_for(from_spec("cycle:3"))
    H = product_hodge(a, b)
    mult_err, add_err = spectral_errors(a, b, product_connection(a, b), H)
    assert mult_err < 1e-8
    assert add_err < 1e-8
    assert H.nrows == 3 * 6


def test_product_checks_builds_each_product_operator_once(monkeypatch):
    # four Kronecker products in all: L, the inverse kron(g_A, g_B) and
    # the two terms of H, which the spectra and |H| = H.abs() reuse
    real = IntMatrix.kron
    shapes = []

    def counted(self, other):
        shapes.append((self.nrows, other.nrows))
        return real(self, other)

    monkeypatch.setattr(IntMatrix, "kron", counted)
    ba, bb = bundle_for(from_spec("complete:2")), bundle_for(from_spec("path:3"))
    product_checks(ba, bb)
    assert shapes == [(3, 5)] * 4


def test_hydrogen_fails_on_products():
    rep = product_checks(bundle_for(from_spec("complete:2")), bundle_for(from_spec("complete:2")))
    assert rep.hydrogen_residual_max == 4
    assert rep.hydrogen_fails
    assert rep.energy_ok
    assert rep.reciprocity_ok


def test_hydrogen_trivial_on_point_factor():
    rep = product_checks(bundle_for(from_spec("complete:1")), bundle_for(from_spec("complete:2")))
    assert rep.hydrogen_residual_max == 0


def test_product_reciprocity_sign():
    # 5 x 5 = 25 cells, odd, so the squared charpoly is anti-palindromic
    rep = product_checks(bundle_for(from_spec("path:3")), bundle_for(from_spec("path:3")))
    assert rep.charpoly_sign == -1


def test_product_reciprocity_fails_on_a_corrupted_factor(monkeypatch):
    # the factor's edge diagonals set to 3 (S = +I_e), with its inverse and
    # the intersection rule made to agree, so that only reciprocity can
    # notice: the product spectrum is still inversion-closed, but the
    # factor fails its certificate
    honest = bundle_for(from_spec("cycle:4"))
    a = OperatorBundle(honest.graph)
    L = edited(honest.connection, {(k, k): 3 for k in range(a.v, a.size)})
    a.__dict__["connection"] = L
    a.__dict__["green"] = a.schur_inverse()
    b = bundle_for(from_spec("path:3"))
    monkeypatch.setattr(products, "connection_by_intersection", lambda *factors: L.kron(b.connection))
    rep = product_checks(a, b)
    assert rep.det_ok
    assert rep.charpoly_sign is None and not rep.reciprocity_ok
    assert reciprocal_sign(graeffe(charpoly(L.kron(b.connection)))) == 1


def test_two_time_walk_steps_compose_in_either_order():
    # the two factors commute: from the output at (n, m), stepping (n, 0)
    # then (0, m) and stepping (0, m) then (n, 0) both give the state at
    # (2n, 2m), the same as stepping (n, m) at once
    a = bundle_for(from_spec("complete:2"))
    b = bundle_for(from_spec("path:3"))
    psi0 = tuple(range(1, 3 * 5 + 1))
    for n, m in ((2, -3), (-2, 1), (-1, -2), (3, 0), (0, -2)):
        out = two_time_walk(a, b, psi0, (n, m))
        joint = two_time_walk(a, b, out, (n, m))
        assert two_time_walk(a, b, two_time_walk(a, b, out, (n, 0)), (0, m)) == joint, (n, m)
        assert two_time_walk(a, b, two_time_walk(a, b, out, (0, m)), (n, 0)) == joint, (n, m)
        assert joint == two_time_walk(a, b, psi0, (2 * n, 2 * m)), (n, m)


def test_signless_product_hodge_entrywise():
    a, b = bundle_for(from_spec("complete:2")), bundle_for(from_spec("path:3"))
    Habs = product_hodge(a, b).abs()
    H = product_hodge(a, b)
    for i in range(H.nrows):
        for j in range(H.ncols):
            assert Habs.rows[i][j] == abs(H.rows[i][j])


def test_mismatched_dimensions_raise():
    a = bundle_for(from_spec("complete:2"))
    with pytest.raises(ProductError):
        two_time_walk(a, a, (1, 0, 0), (1, 1))


def test_product_checks_rejects_a_product_without_integer_inverse(monkeypatch):
    real = products.product_connection

    def doubled_corner(a, b):
        L = real(a, b)
        return edited(L, {(0, j): 2 * x for j, x in pairs(L)[0]})  # det 2 L = +-2

    monkeypatch.setattr(products, "product_connection", doubled_corner)
    with pytest.raises(ProductError, match="not an integer matrix"):
        product_checks(bundle_for(from_spec("complete:2")), bundle_for(from_spec("path:3")))


def test_product_checks_rejects_a_corrupted_intersection_rule(monkeypatch):
    real = products.connection_by_intersection

    def dropped_corner(a, b):
        return edited(real(a, b), {(0, 0): 0})

    monkeypatch.setattr(products, "connection_by_intersection", dropped_corner)
    with pytest.raises(ProductError, match="intersection-rule"):
        product_checks(bundle_for(from_spec("complete:2")), bundle_for(from_spec("path:3")))


# ---------------------------------------------------------------------------
# the dense route two_time_walk no longer runs, kept as its oracle


def _dense_two_time_walk(L_a, L_b, psi0, times):
    """(L_A^n (x) I)(I (x) L_B^m) psi0 by dense powers and the elimination inverse."""

    def power(mat, k):
        return matpow(mat, k) if k >= 0 else matpow(inverse_unimodular(mat), -k)

    n, m = times
    ka = power(L_a, n).kron(IntMatrix.identity(L_b.nrows))
    kb = IntMatrix.identity(L_a.nrows).kron(power(L_b, m))
    return ka.apply(kb.apply(psi0))


@pytest.mark.parametrize("sa, sb", PAIRS)
def test_two_time_walk_matches_dense_kronecker_powers(sa, sb):
    ba, bb = bundle_for(from_spec(sa)), bundle_for(from_spec(sb))
    psi0 = tuple(range(-7, ba.size * bb.size - 7))
    for times in ((2, -3), (-1, 2), (0, 0), (-2, -2)):
        expected = _dense_two_time_walk(ba.connection, bb.connection, psi0, times)
        assert two_time_walk(ba, bb, psi0, times) == expected, times
