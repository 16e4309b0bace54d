"""Exact integer and finite-field linear algebra against independent oracles.

The determinant, inverse, characteristic polynomial, and rank routines are
cross-checked with hypothesis against brute-force Fraction eliminations and
cofactor expansions written inline here, so the two routes share no code.
The multimodular charpoly, which left the package for tests/oracles.py as
the differential oracle of the Schur reciprocity certificate, is also
compared with the integer Faddeev-LeVerrier recursion, kept here as its
oracle, on random matrices and on the corpus.  The multimodular rank
certified_rank left the package the same way, for operators.forest_rank,
and is checked here against Fraction elimination.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connlab import exact, operators
from connlab.exact import (
    FieldMatrix,
    IntMatrix,
    SingularMatrixError,
    det,
    ShapeError,
    field_reduce,
    is_prime,
    linear_combination,
)
from connlab.graphs import from_spec
from connlab.operators import bundle_for
import oracles
from oracles import (
    IntPolynomial,
    certified_rank,
    charpoly,
    dense_kron,
    dense_matmul,
    edited,
    field_inverse,
    graeffe,
    inverse_unimodular,
    is_reciprocal,
    matpow,
    pairs,
    rank,
    reciprocal_sign,
    from_rows,
)

entries = st.integers(min_value=-6, max_value=6)


def square(n_max=5):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def fraction_solve(rows, rhs):
    """Plain Gauss-Jordan over Fraction; returns None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(y) for y in r] for row, r in zip(rows, rhs)]
    col = 0
    for i in range(n):
        piv = next((r for r in range(i, n) if aug[r][i] != 0), None)
        if piv is None:
            return None
        aug[i], aug[piv] = aug[piv], aug[i]
        inv = 1 / aug[i][i]
        aug[i] = [x * inv for x in aug[i]]
        for r in range(n):
            if r != i and aug[r][i] != 0:
                f = aug[r][i]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[i])]
        col += 1
    return [row[n:] for row in aug]


@settings(max_examples=120, deadline=None)
@given(square(4))
def test_det_matches_cofactor_expansion(rows):
    assert det(from_rows(rows)) == cofactor_det(rows)


@settings(max_examples=80, deadline=None)
@given(square(4))
def test_inverse_unimodular_matches_gauss_jordan(rows):
    m = from_rows(rows)
    d = det(m)
    if d == 0:
        with pytest.raises(SingularMatrixError):
            inverse_unimodular(m)
        return
    if d not in (1, -1):
        with pytest.raises(ValueError, match="not unimodular"):
            inverse_unimodular(m)
        return
    n = len(rows)
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    oracle = fraction_solve(rows, eye)
    inv = inverse_unimodular(m)
    assert isinstance(inv, IntMatrix)
    for i in range(n):
        for j in range(n):
            assert inv.rows[i][j] == oracle[i][j]


def elementary_product(n, ops):
    """Product of elementary integer matrices, all of determinant +-1: each
    op (kind, i, j, c) adds c times row j to row i, swaps rows i and j, or
    negates row i."""
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for kind, i, j, c in ops:
        i, j = i % n, j % n
        if kind == "add" and i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "negate":
            rows[i] = [-a for a in rows[i]]
    return from_rows(rows)


elementary_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "swap", "negate"]),
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(-9, 9),
    ),
    max_size=25,
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=8), elementary_ops, st.integers(min_value=2, max_value=5))
def test_inverse_unimodular_of_elementary_products(n, ops, k):
    m = elementary_product(n, ops)
    assert m @ inverse_unimodular(m) == IntMatrix.identity(n)
    # scaling one row by k >= 2 makes |det| = k: no integer inverse
    scaled = from_rows([[k * a for a in row] if i == 0 else row for i, row in enumerate(m.rows)])
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular(scaled)
    # repeating a row makes it singular
    if n >= 2:
        singular = from_rows([m.rows[1]] + m.rows[1:])
        with pytest.raises(SingularMatrixError):
            inverse_unimodular(singular)


@settings(max_examples=80, deadline=None)
@given(square(4), st.integers(min_value=-5, max_value=5))
def test_charpoly_evaluates_like_determinant(rows, x):
    m = from_rows(rows)
    p = charpoly(m)
    n = len(rows)
    shifted = [[x * (1 if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
    assert p(x) == cofactor_det(shifted)


def faddeev_leverrier(m: IntMatrix) -> IntPolynomial:
    """Integer Faddeev-LeVerrier recursion, O(n^4): the oracle for charpoly.

    M_1 = m, c_k = -tr(M_k)/k, M_(k+1) = m (M_k + c_k I); every division is
    exact and asserted, and Cayley-Hamilton m (M_n + c_n I) = 0 is checked.
    """
    n = m.nrows
    coeffs_desc = [1]
    mk = m
    for k in range(1, n + 1):
        q, r = divmod(-mk.trace(), k)
        assert r == 0, "inexact trace division in Faddeev-LeVerrier"
        coeffs_desc.append(q)
        mk = m @ (mk + linear_combination((IntMatrix.identity(n), q)))
    assert mk.is_zero(), "Cayley-Hamilton check failed"
    return IntPolynomial(tuple(reversed(coeffs_desc)))


wide_entries = st.one_of(st.just(0), st.integers(min_value=-(10**6), max_value=10**6))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(wide_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_charpoly_matches_faddeev_leverrier_on_wide_entries(rows):
    # non-symmetric, entries up to 10^6: the CRT needs several primes, and the
    # zeros force pivot swaps and skipped columns in the Hessenberg reduction
    m = from_rows(rows)
    assert charpoly(m) == faddeev_leverrier(m)


def test_charpoly_matches_faddeev_leverrier_on_hodge_blocks(corpus):
    for spec, b in corpus.items():
        for name in ("hodge0", "hodge1", "hodge0_signless", "hodge1_signless"):
            m = getattr(b, name)
            assert charpoly(m) == faddeev_leverrier(m), (spec, name)


def test_charpoly_matches_faddeev_leverrier_on_connection(corpus):
    # the oracle costs about 200 s on L and L^2 over the whole corpus;
    # reciprocity reads charpoly(L^2) off charpoly(L) by Graeffe's step
    small = {spec: b for spec, b in corpus.items() if b.size <= 30}
    assert len(small) > 100
    for spec, b in small.items():
        L = b.connection
        assert charpoly(L) == faddeev_leverrier(L), spec
        assert graeffe(charpoly(L)) == charpoly(L @ L) == faddeev_leverrier(L @ L), spec


@settings(max_examples=60, deadline=None)
@given(square(8))
def test_graeffe_matches_charpoly_of_the_square(rows):
    m = from_rows(rows)
    assert graeffe(charpoly(m)) == charpoly(m @ m)


def test_graeffe_edge_cases():
    assert graeffe(IntPolynomial((1,))).coeffs == (1,)
    assert graeffe(IntPolynomial((-3, 1))).coeffs == (-9, 1)  # x - 3 -> x - 9
    # x^2 + 1, roots +-i, squares -1 twice
    assert graeffe(IntPolynomial((1, 0, 1))).coeffs == (1, 2, 1)


def _check_coefficient_bound(m):
    """The Hadamard bound covers twice every coefficient, and it is at most
    2 (1 + rho)^n, rho the largest absolute row sum, so the CRT never takes
    more primes than under that bound."""
    bound = oracles._coefficient_bound(m)
    assert bound >= 2 * max(abs(c) for c in charpoly(m).coeffs)
    rho = max(sum(abs(a) for a in row) for row in m.rows)
    assert bound <= 2 * (1 + rho) ** m.nrows


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(wide_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_coefficient_bound_is_sound_and_never_needs_more_primes(rows):
    _check_coefficient_bound(from_rows(rows))


def test_coefficient_bound_on_corpus(corpus):
    for spec, b in corpus.items():
        for name in ("connection", "hodge0", "hodge1", "hodge0_signless", "hodge1_signless"):
            m = getattr(b, name)
            if m.nrows:
                _check_coefficient_bound(m)


def test_charpoly_edge_cases():
    assert charpoly(from_rows([], ncols=0)).coeffs == (1,)
    assert charpoly(from_rows([[-7]])).coeffs == (7, 1)
    assert charpoly(IntMatrix.zeros(5, 5)).coeffs == (0, 0, 0, 0, 0, 1)
    # nilpotent Jordan block: no column has a pivot below the diagonal
    jordan = from_rows([[1 if j == i + 1 else 0 for j in range(5)] for i in range(5)])
    assert charpoly(jordan).coeffs == (0, 0, 0, 0, 0, 1)
    # column 0 has a zero subdiagonal entry, so its pivot comes from row 2
    swap = from_rows([[1, 2, 3], [0, 4, 5], [6, 7, 8]])
    assert charpoly(swap) == faddeev_leverrier(swap) == IntPolynomial((15, -9, -13, 1))


def test_charpoly_complete12_squared_needs_big_coefficients():
    L = bundle_for(from_spec("complete:12")).connection
    p = charpoly(L @ L)
    assert max(abs(c) for c in p.coeffs) > 2**31
    assert p == faddeev_leverrier(L @ L)
    assert reciprocal_sign(p) == 1  # 78 cells, an even count


def test_charpoly_certificate_catches_a_corrupt_residue(monkeypatch):
    real = oracles._charpoly_mod
    primes = []

    def corrupt_second_prime(a, p):
        out = real(a, p)
        primes.append(p)
        if len(primes) == 2:
            out[1] = (out[1] + 1) % p
        return out

    m = from_rows([[10**6, 3, 0], [-2, 10**6, 5], [7, 0, -(10**6)]])
    assert charpoly(m) == faddeev_leverrier(m)
    monkeypatch.setattr(oracles, "_charpoly_mod", corrupt_second_prime)
    with pytest.raises(ArithmeticError, match="certificate"):
        charpoly(m)
    assert len(primes) >= 2


@settings(max_examples=40, deadline=None)
@given(square(3), st.integers(min_value=0, max_value=5))
def test_matpow_matches_repeated_multiplication(rows, k):
    m = from_rows(rows)
    expected = IntMatrix.identity(len(rows))
    for _ in range(k):
        expected = expected @ m
    assert matpow(m, k).rows == expected.rows


@settings(max_examples=60, deadline=None)
@given(square(4), st.sampled_from([2, 3, 5, 7]))
def test_field_ops_commute_with_reduction(rows, p):
    m = from_rows(rows)
    mp = field_reduce(m, p)
    sq_then_reduce = field_reduce(m @ m, p)
    assert mp @ mp == sq_then_reduce
    assert mp @ mp @ mp == field_reduce(m @ m @ m, p)
    assert mp.apply(rows[0]) == tuple(x % p for x in m.apply(rows[0]))
    assert field_reduce(mp - mp @ mp, p) == field_reduce(m - m @ m, p)
    if det(m) % p != 0:
        inv = field_inverse(mp)
        assert inv @ mp == field_reduce(IntMatrix.identity(len(rows)), p) and inv.p == p


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4), st.data())
def test_rank_of_factored_product(n, r, data):
    # A = B C with B n-by-r, C r-by-n has rank at most r; compare with a
    # Fraction row reduction oracle
    B = data.draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    C = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    A = [[sum(B[i][k] * C[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    got = rank(from_rows(A))
    assert got <= r
    assert certified_rank(from_rows(A)) == got
    # oracle: count pivots
    work = [[Fraction(x) for x in row] for row in A]
    pivots = 0
    for j in range(n):
        piv = next((i for i in range(pivots, n) if work[i][j] != 0), None)
        if piv is None:
            continue
        work[pivots], work[piv] = work[piv], work[pivots]
        for i in range(n):
            if i != pivots and work[i][j] != 0:
                f = work[i][j] / work[pivots][j]
                work[i] = [a - f * b for a, b in zip(work[i], work[pivots])]
        pivots += 1
    assert got == pivots


def test_certified_rank_tries_primes_until_hadamard_bound():
    # rank 1 over Q, but 0 mod the first prime (and mod the first two): the
    # search must go on to a prime that misses the entry
    p0, p1 = oracles._prime(0), oracles._prime(1)
    for entry in (p0, p0 * p1, -p0 * p1):
        m = from_rows([[entry, 0], [0, 0]])
        assert certified_rank(m) == rank(m) == 1
        assert certified_rank(m, [[0, 1]]) == 1
    assert certified_rank(from_rows([[p0, p0], [p0, p0]]), [[1, -1]]) == 1


def test_certified_rank_counts_only_valid_kernel_vectors():
    m = from_rows([[1, 1, 0], [0, 0, 0]])
    assert certified_rank(m) == 1
    # not in the kernel, zero, or overlapping an earlier vector: each would
    # lower the cap below the true rank if it were counted
    for kernel in ([[1, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, -1, 0], [2, -2, 0], [0, 0, 1]]):
        assert certified_rank(m, kernel) == 1
    assert certified_rank(from_rows([], ncols=3), [[1, 0, 0]]) == 0
    assert certified_rank(from_rows([[0, 0]])) == 0
    assert certified_rank(from_rows([[5]], ncols=1)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.data())
def test_certified_rank_matches_fraction_elimination_on_wide_entries(n, k, data):
    wide = st.integers(min_value=-(10**12), max_value=10**12)
    rows = data.draw(st.lists(st.lists(wide, min_size=k, max_size=k), min_size=n, max_size=n))
    m = from_rows(rows, ncols=k)
    assert certified_rank(m) == rank(m)


def test_certified_rank_of_incidence_factors_on_corpus(corpus, monkeypatch):
    # rank d = v - b0 and rank |d| = v - (bipartite components): with the
    # component vectors the bounds meet at the first prime, and without
    # them Hadamard's bound ends the search.  Fraction elimination is the
    # oracle
    primes = []
    real = oracles._rank_mod
    monkeypatch.setattr(oracles, "_rank_mod", lambda a, p: primes.append(p) or real(a, p))
    for spec, b in corpus.items():
        indicators, colourings = oracles.component_vectors(b.graph)
        for d, kernel in ((b.incidence, indicators), (b.incidence_signless, colourings)):
            want = rank(d)
            # the vectors d maps to zero close the cap on their own
            assert sum(not any(d.apply(x)) for x in kernel) == d.ncols - want, spec
            primes.clear()
            assert certified_rank(d, kernel) == want, spec
            assert primes == [oracles._prime(0)], spec
            assert certified_rank(d) == want, spec


def test_inverse_unimodular_round_trip():
    m = from_rows([[2, 1], [1, 1]])
    inv = inverse_unimodular(m)
    assert (m @ inv).rows == IntMatrix.identity(2).rows
    # invertible over the rationals but not over the integers
    with pytest.raises(ValueError):
        inverse_unimodular(from_rows([[2, 0], [0, 2]]))
    with pytest.raises(SingularMatrixError):
        inverse_unimodular(from_rows([[1, 1], [1, 1]]))
    assert inverse_unimodular(from_rows([], ncols=0)) == from_rows([], ncols=0)


def test_field_matrix_is_a_reduced_int_matrix():
    m = from_rows([[7, -1], [12, 5]], p=5)
    assert isinstance(m, FieldMatrix) and isinstance(m, IntMatrix)
    assert m.rows == [[2, 4], [2, 0]] and m.shape == (2, 2) and m.p == 5
    assert m == field_reduce(from_rows([[2, -1], [2, 10]]), 5)
    assert field_reduce(IntMatrix.identity(2), 5) == from_rows([[6, 0], [0, 11]], p=5)
    # equality is IntMatrix's: it compares the entries, not the type or p
    assert m == from_rows(m.rows) and from_rows(m.rows, p=7) == m
    assert repr(m) == "FieldMatrix(2x2)"
    # shape rules are IntMatrix's
    assert from_rows([], ncols=4, p=3).shape == (0, 4)
    with pytest.raises(ShapeError):
        m.apply((1, 2, 3))
    with pytest.raises(ValueError, match="not prime"):
        from_rows([[1]], p=4)
    with pytest.raises(ValueError, match="mixed moduli"):
        m @ from_rows(m.rows, p=7)


def test_dense_input_is_stored_as_its_nonzeros():
    # dense rows, stored by from_triplets through oracles.from_rows, are
    # held as their compressed rows, the one view of the entries, which the
    # constructor sets and every read shares
    m = from_rows([[0, 3, 0], [-2, 0, 5]])
    indptr, cols, values = m.csr
    assert m.csr is m.csr
    assert (indptr.tolist(), cols.tolist(), values.tolist()) == ([0, 1, 3], [1, 0, 2], [3, -2, 5])
    assert values.dtype == np.int64 and m.nnz == 3
    assert pairs(m) == [[(1, 3)], [(0, -2), (2, 5)]]
    t = m.transpose()
    assert t.csr is t.csr
    assert pairs(t) == [[(1, -2)], [(0, 3)], [(1, 5)]]
    # a corrupted operator is a new matrix built from edited rows
    c = edited(m, {(0, 1): 0, (1, 1): 7})
    assert pairs(c) == [[], [(0, -2), (1, 7), (2, 5)]]
    assert c.apply((1, 1, 1)) == (0, 10)
    assert pairs(m) == [[(1, 3)], [(0, -2), (2, 5)]] and m.apply((1, 1, 1)) == (3, 3)
    # the input lists are converted, not kept
    given = [[0, -1], [10**30, 0], [0, 0]]
    d = from_rows(given)
    given[0][0] = 5
    given[2].append(1)
    assert pairs(d) == [[(1, -1)], [(0, 10**30)], []] and d.shape == (3, 2)
    assert d.csr[0].tolist() == [0, 1, 2, 2] and d.csr[2].dtype == object
    assert d.rows == [[0, -1], [10**30, 0], [0, 0]]
    # FieldMatrix sees its reduced entries and drops those that are 0 mod p
    mp = from_rows(m.rows, p=3)
    assert pairs(mp) == [[], [(0, 1), (2, 2)]] and mp.rows == [[0, 0, 0], [1, 0, 2]]
    assert mp.csr[0].tolist() == [0, 0, 2] and mp.nnz == 2
    assert mp.apply((1, 1, 1)) == (0, 0)
    assert pairs(from_rows([[7, -7, 8], [-13, 0, 14]], p=7)) == [[(2, 1)], [(0, 1)]]
    empty = from_rows([], ncols=3)
    assert pairs(empty) == [] and empty.csr[0].tolist() == [0] and empty.shape == (0, 3)
    assert from_rows([[], []], ncols=0).apply(()) == (0, 0)


def test_dense_rows_are_a_fresh_view_on_every_read():
    indptr, cols, values = [0, 1, 1, 3], [1, 0, 2], [3, -2, 10**30]
    m = IntMatrix.from_csr(indptr, cols, values, 3, 3)
    # list input is converted to arrays, so writing into the lists later
    # never reaches the matrix; given arrays are kept as they are
    values[0] = 4
    cols.append(1)
    assert pairs(m) == [[(1, 3)], [], [(0, -2), (2, 10**30)]]
    kept = np.array([0, 1], dtype=np.intp)
    assert IntMatrix.from_csr(kept, kept[1:], kept[1:], 1, 2).csr[0] is kept
    rows = m.rows
    assert rows == [[0, 3, 0], [0, 0, 0], [-2, 0, 10**30]]
    again = m.rows
    assert again == rows and again is not rows
    assert all(a is not b for a, b in zip(again, rows))
    assert m == from_rows(rows) and from_rows(rows) == m
    assert m.apply((1, 1, 1)) == (3, 0, 10**30 - 2)
    # a write into the dense rows is lost: the matrix never changes
    rows[1][1] = 4
    rows[0].append(7)
    rows.pop()
    assert m == from_rows([[0, 3, 0], [0, 0, 0], [-2, 0, 10**30]])
    assert pairs(m) == [[(1, 3)], [], [(0, -2), (2, 10**30)]]
    assert m.apply((1, 1, 1)) == (3, 0, 10**30 - 2)
    assert m.rows == again == [[0, 3, 0], [0, 0, 0], [-2, 0, 10**30]]
    assert IntMatrix.from_csr([0, 0, 0], [], [], 2, 0).rows == [[], []]
    assert IntMatrix.from_csr([0], [], [], 0, 4).to_float().shape == (0, 4)
    with pytest.raises(ShapeError):
        IntMatrix.from_csr([0, 1], [0], [1], 2, 2)


@pytest.mark.parametrize(
    "a, b",
    [
        (from_rows([], ncols=3), from_rows([[1, -2], [0, 3]])),
        (from_rows([[1, -2], [0, 3]]), from_rows([], ncols=4)),
        (from_rows([[], []], ncols=0), from_rows([[1, 2, 3]])),
        (from_rows([[5, 0, -1]]), from_rows([[], [], []], ncols=0)),
        (from_rows([[0, 2, -3], [4, 0, 0]]), from_rows([[1], [0], [-1], [2]])),
        (
            from_rows([[-(2**64), 0], [3, 2**63 + 1]]),
            from_rows([[0, -(2**70)], [-1, 0], [2**65, 7]]),
        ),
    ],
    ids=["0xn-left", "0xn-right", "nx0-left", "nx0-right", "non-square", "big-signed"],
)
def test_kron_over_the_pairs_matches_the_dense_kron(a, b):
    got, want = a.kron(b), dense_kron(a, b)
    assert got.shape == want.shape == (a.nrows * b.nrows, a.ncols * b.ncols)
    assert got.rows == want.rows
    assert pairs(got) == pairs(want)


product_entries = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(min_value=-(2**70), max_value=2**70),
)


# entries of both signs in 2^31..2^62: every product of two, and every sum
# of two, of the large ones reaches 2^62 or more, so int64 arithmetic that
# ran past its bound would wrap
boundary_entries = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.builds(lambda sign, a: sign * a, st.sampled_from([1, -1]), st.integers(2**31, 2**62)),
)


@st.composite
def product_operands(draw, entries=product_entries):
    """a (n x m) and b (m x k) with n, m, k in 0..5: empty sides, non-square
    shapes, and entries of both signs beyond 2^63; the frequent 0 and +-1
    make products cancel."""
    n, m, k = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    a = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    b = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    return from_rows(a, ncols=m), from_rows(b, ncols=k)


@st.composite
def sum_operands(draw, entries):
    """a and b of one shape n x m, n and m in 0..5."""
    n, m = (draw(st.integers(min_value=0, max_value=5)) for _ in range(2))
    a, b = ([draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)] for _ in range(2))
    return from_rows(a, ncols=m), from_rows(b, ncols=m)


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_sparse_product_matches_the_dense_product(operands):
    a, b = operands
    got, want = a @ b, dense_matmul(a, b)
    assert got.shape == want.shape == (a.nrows, b.ncols)
    assert got.rows == want.rows
    # entries that cancel to 0 leave no pair behind
    assert pairs(got) == pairs(want)
    assert all(x for row in pairs(got) for _, x in row)


@settings(max_examples=60, deadline=None)
@given(product_operands(), st.sampled_from([2, 3, 7, 2**61 - 1]))
def test_field_product_reduces_mod_p(operands, p):
    a, b = operands
    got = field_reduce(a, p) @ field_reduce(b, p)
    assert isinstance(got, FieldMatrix) and got.p == p
    assert got == field_reduce(dense_matmul(a, b), p)
    with pytest.raises(ValueError, match="mixed moduli"):
        field_reduce(a, p) @ field_reduce(b, 5)


def test_sparse_product_edge_cases():
    big = 2**64
    cancel = from_rows([[1, 1], [big, big]]) @ from_rows([[big], [-big]])
    assert cancel.shape == (2, 1) and pairs(cancel) == [[], []] and cancel.is_zero()
    assert (from_rows([], ncols=3) @ from_rows([[1], [2], [3]])).shape == (0, 1)
    assert (from_rows([[], []], ncols=0) @ from_rows([], ncols=4)).rows == [[0] * 4] * 2
    with pytest.raises(ShapeError, match="cannot multiply"):
        from_rows([[1, 2]]) @ from_rows([[1, 2]])


@settings(max_examples=150, deadline=None)
@given(product_operands(boundary_entries))
def test_products_at_the_int64_boundary_are_exact(operands):
    a, b = operands
    got = a @ b
    assert got.rows == dense_matmul(a, b).rows
    assert all(x for row in pairs(got) for _, x in row)


@settings(max_examples=150, deadline=None)
@given(sum_operands(boundary_entries))
def test_sums_at_the_int64_boundary_are_exact(operands):
    a, b = operands
    for got, sign in ((a + b, 1), (a - b, -1)):
        want = [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
        assert got.rows == want
        assert pairs(got) == pairs(from_rows(want, ncols=a.ncols))


def test_int64_boundary_cases_stay_exact():
    # four products of 2^64 each: in int64 every one would wrap to 0
    a, b = from_rows([[2**32] * 4]), from_rows([[2**32]] * 4)
    assert (a @ b).rows == [[2**66]]
    # four products of 2^62, each in int64, whose sum 2^64 would wrap to 0
    c, d = from_rows([[2**31] * 4]), from_rows([[2**31]] * 4)
    assert (c @ d).rows == [[2**64]]
    assert (c @ linear_combination((d, -1)) + c @ d).is_zero()
    # 2^62 + 2^62 = 2^63, one past the largest int64
    half = from_rows([[2**62, -(2**62), 0]])
    assert (half + half).rows == [[2**63, -(2**63), 0]]
    assert (half - linear_combination((half, -1))).rows == [[2**63, -(2**63), 0]]
    assert (half - half).is_zero() and pairs(half + linear_combination((half, -1))) == [[]]
    # 274177 * 67280421310721 = 2^64 + 1, which int64 would wrap to 1: m g
    # is diag(2^64 + 1, 1), not the identity
    m, g = from_rows([[274177, 0], [0, 1]]), from_rows([[67280421310721, 0], [0, 1]])
    assert (m @ g).rows == [[2**64 + 1, 0], [0, 1]]
    assert not operators._is_inverse(m, g) and not operators._is_inverse(g, m)
    u = from_rows([[1, 2**62, 2**62], [0, 1, 0], [0, 0, 1]])
    v = from_rows([[1, -(2**62), -(2**62)], [0, 1, 0], [0, 0, 1]])
    assert operators._is_inverse(u, v) and operators._is_inverse(v, u)
    assert not operators._is_inverse(u, u)
    # the hydrogen residual |H| - L + g of entries at 2^62: 3 * 2^62 at (0, 0)
    b = bundle_for(from_spec("path:2"))
    n, big = b.size, 2**62
    entry = [[big] + [0] * (n - 1)] + [[0] * n for _ in range(n - 1)]
    h, L, green = from_rows(entry), linear_combination((from_rows(entry), -1)), from_rows(entry)
    b.__dict__.update(hodge_signless=h, connection=L, green=green)
    assert operators.hydrogen_residual(b).rows == linear_combination((from_rows(entry), 3)).rows
    assert operators.hydrogen_residual(b).max_abs() == 3 * big


def test_values_leave_intmatrix_as_python_ints():
    # array-built operators keep int64 values inside; everything read out of
    # them is a Python int, as json.dumps and repr need
    b = bundle_for(from_spec("wheel:6"))
    residual = operators.hydrogen_residual(b)
    huge = IntMatrix.from_triplets([0, 0, 1], [1, 1, 0], [2**70, 5, -3], 2, 2)
    for m in (b.connection, b.green, b.hodge_signless, residual, b.connection @ b.green, huge):
        assert all(type(x) is int for row in m.rows for x in row)
        assert all(type(j) is int and type(x) is int for row in pairs(m) for j, x in row)
        assert all(type(x) is int for x in (m.entry_sum(), m.max_abs(), m.trace(), m.nnz))
        assert all(type(x) is int for x in m.apply([1] * m.ncols) + tuple(m.row_sums()))
    assert pairs(huge) == [[(1, 2**70 + 5)], [(0, -3)]] and huge.csr[2].dtype == object
    assert type(b.connection_det) is int and b.connection_det == (-1) ** b.e
    summary = {"residual": residual.max_abs(), "det": b.connection_det, "energy": b.green.entry_sum()}
    assert json.dumps(summary, sort_keys=True) == '{"det": 1, "energy": -5, "residual": 0}'
    assert "int64" not in repr(b.green.rows) and eval(repr(b.green.rows)) == b.green.rows


def test_sums_and_reductions_run_over_the_nonzeros():
    a = from_rows([[0, 3, 0], [-2, 0, 5]])
    b = oracles.matrix_from_dicts([{1: -3, 2: 1}, {0: 0, 2: -5}], 3)
    assert pairs(b) == [[(1, -3), (2, 1)], [(2, -5)]]
    assert pairs(a + b) == [[(2, 1)], [(0, -2)]]
    assert (a - a).is_zero() and pairs(a - a) == [[], []]
    assert pairs(linear_combination((a, 0))) == [[], []] and linear_combination((a, -2)).rows == [[0, -6, 0], [4, 0, -10]]
    assert a.abs().rows == [[0, 3, 0], [2, 0, 5]]
    assert pairs(a.transpose()) == [[(1, -2)], [(0, 3)], [(1, 5)]]
    assert (a.max_abs(), a.entry_sum(), a.row_sums()) == (5, 6, [3, 3])
    assert from_rows([[1, 2], [3, -4]]).trace() == -3
    assert np.array_equal(a.to_float(), np.array([[0.0, 3.0, 0.0], [-2.0, 0.0, 5.0]]))


def test_field_matrix_from_nonzeros_drops_entries_that_vanish_mod_p():
    # the compressed rows of [[7, 3], [0, -14]], reduced mod 7 by from_csr,
    # the one reduction that field_reduce and block_diagonal share
    csr = ([0, 2, 3], [0, 1, 1], [7, 3, -14])
    m = FieldMatrix.from_csr(*csr, 2, 2, 7)
    assert m.p == 7 and pairs(m) == [[(1, 3)], []]
    assert m.csr[0].tolist() == [0, 1, 1] and m.nnz == 1
    assert m == from_rows([[7, 3], [0, -14]], p=7)
    assert field_reduce(IntMatrix.from_csr(*csr, 2, 2), 7) == m
    assert pairs(field_reduce(m - IntMatrix.identity(2), 7)) == [[(0, 6), (1, 3)], [(1, 6)]]
    with pytest.raises(ValueError, match="not prime"):
        FieldMatrix.from_csr(*csr, 2, 2, 8)


def test_field_steps_multiply_by_signed_residues():
    # p - 1 steps as -1, so a row of four entries of absolute residue 1
    # keeps every sum below 4 (p - 1) < 2^63 at p = 2^61 - 1, and a fifth
    # entry passes the bound; either way the results are reduced to 0..p-1
    p = 2**61 - 1
    for row, dtype in (([p - 1, 1, 1, -1], np.int64), ([p - 1, 1, 1, -1, 1], object)):
        m = from_rows([row], p=p)
        assert m.step_dtype is dtype
        x = [p - 1] * len(row)
        assert m.apply(x) == (sum(a * b for a, b in zip(row, x)) % p,)
    assert from_rows([[2, 1]], p=2).step_dtype is np.int64
    assert from_rows([[2, 1]], p=3).apply([2, 2]) == (0,)


def test_block_diagonal_lays_two_matrices_side_by_side():
    a, b = from_rows([[1, -2], [0, 0], [3, 4]]), from_rows([[0, 5, 2**70]])
    both = exact.block_diagonal(a, b)
    assert type(both) is IntMatrix and both.shape == (4, 5)
    assert both.rows == [row + [0] * 3 for row in a.rows] + [[0, 0] + b.rows[0]]
    ap, bp = field_reduce(a, 7), field_reduce(b, 7)
    both = exact.block_diagonal(ap, bp)
    assert isinstance(both, FieldMatrix) and both.p == 7
    assert both == field_reduce(exact.block_diagonal(a, b), 7)


def test_reciprocal_sign_cases():
    assert reciprocal_sign(IntPolynomial((1, -3, 1))) == 1          # palindromic
    assert reciprocal_sign(IntPolynomial((-1, 7, -7, 1))) == -1     # anti-palindromic
    assert reciprocal_sign(IntPolynomial((1, 2, 3, 5))) is None     # neither
    assert is_reciprocal(IntPolynomial((1, -3, 1)))


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(2, 25):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)


def test_is_prime_matches_trial_division_below_10_5():
    primes: list[int] = []
    for n in range(-3, 10**5):
        expected = n >= 2 and all(n % q for q in primes if q * q <= n)
        if expected:
            primes.append(n)
        assert is_prime(n) == expected, n


def test_is_prime_past_the_old_witnesses():
    # 3 215 031 751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
    # 2, 3, 5, 7 that the word-prime test used; 3 825 123 056 546 413 051 is
    # one to every prime base up to 23
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime(561) and not is_prime(1_000_000_007 * 998_244_353)
    assert is_prime(10**16 + 61) and is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert oracles._prime(0) == 2**31 - 1 and oracles._prime(1) == 2**31 - 19
    assert not is_prime(exact.PRIME_TEST_LIMIT - 1)  # even
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(exact.PRIME_TEST_LIMIT)
    with pytest.raises(ValueError, match="cannot decide"):
        from_rows([[1]], p=2**89 - 1)
