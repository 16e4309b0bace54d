"""Masked Newton solves of X - X^{-1} = K: exact Jacobian degeneracy at the
connection matrix, quadratic convergence on trees, and support reporting.
A pattern is an IntMatrix whose nonzero positions are the support: L, or
the inverse-support pattern."""

import hashlib
import json

import numpy as np
import pytest

import connlab.newton as newton
from connlab.exact import IntMatrix, det
from connlab.graphs import from_spec
from connlab.newton import (
    NewtonConfig,
    SingularJacobianError,
    exact_jacobian_at_connection,
    jacobian_at,
    inverse_support_pattern,
    perturb_target,
    solve_hydrogen,
    solve_perturbed,
    verify_support,
)
from connlab.operators import bundle_for
from oracles import exact_jacobian_loop


@pytest.mark.parametrize(
    "spec, jdet",
    [
        ("path:4", 384),
        ("star:3", -1024),
        ("path:6", 10240),
        ("cycle:4", 0),
        ("cycle:5", 0),
        ("complete:3", 0),
        ("figure8", 0),
        # neither side of the tree / cycle split is a rule
        ("grid:2,3", 1081344),
        ("bary:star:4", 0),
    ],
)
def test_exact_jacobian_determinant(spec, jdet):
    b = bundle_for(from_spec(spec))
    J = exact_jacobian_at_connection(b)
    assert det(J) == jdet


def _support(m: IntMatrix) -> set[tuple[int, int]]:
    rows, cols, _ = m.triplets()
    return set(zip(rows.tolist(), cols.tolist()))


def test_pattern_construction(corpus):
    for spec, b in corpus.items():
        pattern = b.connection
        assert pattern is b.connection and pattern.shape == (b.size, b.size), spec
        # diagonal always included, pattern symmetric
        support = _support(pattern)
        assert all((i, i) in support for i in range(b.size)), spec
        assert support == {(j, i) for i, j in support}, spec
        # the inverse-support pattern adds the adjacent-vertex pairs, and
        # holds the support of g
        adjacent = {pair for a, c in b.graph.edges for pair in ((a, c), (c, a))}
        q = _support(inverse_support_pattern(b))
        assert q == support | adjacent, spec
        assert _support(b.green) <= q, spec
    b = bundle_for(from_spec("path:3"))
    assert (0, 1) in _support(inverse_support_pattern(b)) and (0, 1) not in _support(b.connection)


def test_perturb_target_deterministic_and_symmetric():
    b = bundle_for(from_spec("path:4"))
    pattern = b.connection
    K1 = perturb_target(b, 0.01, seed=5)
    K2 = perturb_target(b, 0.01, seed=5)
    K3 = perturb_target(b, 0.01, seed=6)
    assert np.array_equal(K1, K2)
    assert not np.array_equal(K1, K3)
    assert np.array_equal(K1, K1.T)
    # perturbation confined to the pattern
    mask, habs = pattern.rows, b.hodge_signless.rows
    for i in range(pattern.nrows):
        for j in range(pattern.ncols):
            if not mask[i][j]:
                assert K1[i, j] == habs[i][j]


def test_unperturbed_problem_converges_immediately():
    b = bundle_for(from_spec("path:4"))
    result = solve_hydrogen(b, b.hodge_signless.to_float(), NewtonConfig())
    assert result.converged
    assert result.iterations == 0


@pytest.mark.parametrize("spec", ["path:4", "path:6", "star:3", "star:5"])
def test_trees_converge_quadratically(spec):
    b = bundle_for(from_spec(spec))
    result, support = solve_perturbed(b, eps=0.01, seed=1)
    assert result.converged
    assert result.iterations <= 5
    assert result.residual < 1e-10
    history = result.residual_history
    # quadratic tail: each residual is at most a modest multiple of the
    # square of the previous one
    for prev, cur in zip(history[-3:-1], history[-2:]):
        assert cur <= 50 * prev * prev + 1e-15
    # the matrix stays exactly on the pattern; its inverse does not
    assert support.off_pattern_matrix_max == 0.0
    assert support.off_pattern_inverse_max > 0.5
    # off the extended pattern the inverse leaks only O(eps)
    assert support.off_inverse_support_max < 0.05


@pytest.mark.parametrize("spec", ["cycle:4", "cycle:5", "figure8"])
def test_singular_jacobian_detected_and_reported(spec):
    b = bundle_for(from_spec(spec))
    with pytest.raises(SingularJacobianError) as excinfo:
        solve_perturbed(b, eps=0.01, seed=1)
    err = excinfo.value
    assert err.iteration == 0
    assert err.sigma_min < 1e-10
    assert err.sigma_max > 1.0


def test_solution_continuity_in_eps():
    b = bundle_for(from_spec("path:4"))
    sols = {}
    for eps in (0.02, 0.01, 0.005):
        result, _ = solve_perturbed(b, eps=eps, seed=0)
        sols[eps] = result.solution
    d_big = float(np.max(np.abs(sols[0.02] - sols[0.01])))
    d_small = float(np.max(np.abs(sols[0.01] - sols[0.005])))
    assert d_small < d_big
    assert d_big < 0.1


def test_verify_support_negative_control():
    rng = np.random.default_rng(2)
    b = bundle_for(from_spec("path:4"))
    pattern = b.connection
    dense = rng.normal(size=pattern.shape)
    dense = dense + dense.T + 10 * np.eye(pattern.nrows)
    report = verify_support(b, dense)
    assert report.off_pattern_matrix_max > 1e-8


def test_newton_config_rejects_negative_max_iter():
    with pytest.raises(ValueError, match="max_iter"):
        NewtonConfig(max_iter=-1)
    assert NewtonConfig(max_iter=0).max_iter == 0


@pytest.mark.parametrize("spec, seed", [("path:6", 1), ("star:12", 0)])
def test_solve_inverts_each_iterate_once(spec, seed, monkeypatch):
    # the solve inverts its start L and each line-search trial, and an accepted
    # trial's inverse serves the next iteration; verify_support inverts the
    # solution once more.  An iteration reads one residual at its top and
    # one per trial, which counts the trials: path:6 takes full steps,
    # star:12 backtracks
    inverted, residuals = [], []
    inv, residual = np.linalg.inv, newton._residual_vector
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.tobytes()) or inv(a))
    monkeypatch.setattr(newton, "_residual_vector", lambda *args: residuals.append(1) or residual(*args))
    b = bundle_for(from_spec(spec))
    result, _ = solve_perturbed(b, 0.01, seed)
    trials = len(residuals) - (result.iterations + 1)
    assert result.converged and trials >= result.iterations > 0
    assert len(inverted) == 1 + trials + 1
    assert inverted[0] == b.connection.to_float().tobytes()
    assert inverted[-1] == inverted[-2] == result.solution.tobytes()
    assert len(set(inverted)) == len(inverted) - 1


def _loop_coords(pattern):
    """The upper-triangle support coordinates, read off the pattern's dense rows."""
    mask = pattern.rows
    return [(i, j) for i in range(len(mask)) for j in range(i, len(mask)) if mask[i][j]]


def _jacobian_loop(X, pattern):
    """The column-by-column Jacobian that jacobian_at replaced: the oracle."""
    coords = _loop_coords(pattern)
    Xinv = np.linalg.inv(X)
    cols = []
    for i, j in coords:
        prop = np.outer(Xinv[:, i], Xinv[j, :])
        if i != j:
            prop = prop + np.outer(Xinv[:, j], Xinv[i, :])
        col = []
        for k, l in coords:
            direct = 1.0 if (k, l) in ((i, j), (j, i)) else 0.0
            col.append(-(direct + prop[k, l]))
        cols.append(col)
    return np.array(cols).T


NEWTON_POOLS = (
    [f"path:{n}" for n in range(2, 23)]
    + [f"star:{n}" for n in range(3, 23)]
    + [f"cycle:{n}" for n in range(3, 23)]
    + [f"bary:cycle:{n}" for n in range(3, 9)]
    + ["figure8"]
)


@pytest.mark.parametrize("spec", NEWTON_POOLS)
def test_jacobian_at_is_bit_identical_to_the_loop(spec):
    b = bundle_for(from_spec(spec))
    pattern = b.connection
    at_connection = b.connection.to_float()
    # L in place of |H|, set before its first read: perturb_target gives L + E
    b.__dict__["hodge_signless"] = b.connection
    perturbed = perturb_target(b, 0.05, seed=len(spec))
    coords = tuple(np.array(c) for c in zip(*_loop_coords(pattern)))
    for X in (at_connection, perturbed):
        fast, slow = jacobian_at(np.linalg.inv(X), coords), _jacobian_loop(X, pattern)
        assert fast.shape == slow.shape
        assert np.array_equal(fast, slow)
        assert np.array_equal(np.signbit(fast), np.signbit(slow))


def test_coords_are_the_upper_triangle_in_row_major_order(corpus):
    # the coordinates every routine reads, off L and off the
    # inverse-support pattern, both symmetric with a full diagonal
    for spec, b in corpus.items():
        for pattern in (b.connection, inverse_support_pattern(b)):
            rows, cols = newton._coords(pattern)
            assert list(zip(rows.tolist(), cols.tolist())) == _loop_coords(pattern), spec


@pytest.mark.parametrize(
    "spec", NEWTON_POOLS + ["grid:2,3", "bary:star:4", "wheel:8", "petersen:5,2"]
)
def test_exact_jacobian_equals_the_loop(spec):
    b = bundle_for(from_spec(spec))
    fast, slow = exact_jacobian_at_connection(b), exact_jacobian_loop(b)
    assert fast.shape == slow.shape
    for x, y in zip(fast.csr, slow.csr):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_exact_jacobian_at_1124_coordinates_without_a_dense_view(monkeypatch):
    # grid:10,10: m = 1124 coordinates, so the loop's m x m dense rows
    # would be 1.26 M entries; building any dense view fails the test
    def refuse(self, *args):
        raise AssertionError(f"dense view of a {self.shape} matrix")

    monkeypatch.setattr(IntMatrix, "_dense_rows", refuse)
    monkeypatch.setattr(IntMatrix, "to_array", refuse)
    J = exact_jacobian_at_connection(bundle_for(from_spec("grid:10,10")))
    assert J.shape == (1124, 1124) and J.nnz == 8596
    assert (J.trace(), J.entry_sum(), J.max_abs()) == (-3824, -1044, 10)
    # the compressed rows of the loop oracle, built once: sha256 of the JSON of csr
    digest = hashlib.sha256(json.dumps([x.tolist() for x in J.csr]).encode()).hexdigest()
    assert digest == "042553aea18857da98c02c91804d2b0e5ebcc2bcafa924bf2842c73bfd578d32"


def _outcome(b, seed):
    """Everything a solve reports: the result's bytes, or the exception's
    type, iteration, singular values and message."""
    try:
        result, _ = solve_perturbed(b, 0.01, seed)
        message = None
    except SingularJacobianError as err:
        return type(err), err.iteration, err.sigma_min, err.sigma_max, str(err)
    except newton.NonConvergenceError as err:
        result, message = err.result, str(err)
    return (
        result.solution.tobytes(),
        result.residual_history,
        result.iterations,
        result.converged,
        result.residual,
        message,
    )


@pytest.mark.parametrize(
    "spec, seed",
    [(spec, len(spec)) for spec in NEWTON_POOLS] + [("path:30", 1), ("bary:star:5", 2)],
)
def test_certificate_changes_no_iterate(spec, seed, monkeypatch):
    # the Cholesky certificate only skips SVDs that cannot fire: against the
    # always-SVD solve, every iterate, residual and exception is the same
    b = bundle_for(from_spec(spec))
    certified = _outcome(b, seed)
    monkeypatch.setattr(newton, "_certified_nonsingular", lambda J: False)
    assert certified == _outcome(b, seed)


def _factorizations(monkeypatch):
    """The names of the np.linalg factorizations a solve calls, in order."""
    calls = []
    for name in ("svd", "cholesky"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k)
        )
    return calls


def test_certificate_replaces_the_svd_until_it_fails(monkeypatch):
    calls = _factorizations(monkeypatch)
    # a converging tree: one certificate per Jacobian, no SVD
    result, _ = solve_perturbed(bundle_for(from_spec("star:12")), 0.01, 0)
    assert result.converged and calls == ["cholesky"] * result.iterations
    # a cycle: the certificate fails at L, and the SVD it falls back to
    # finds the Jacobian singular
    calls.clear()
    with pytest.raises(SingularJacobianError) as excinfo:
        solve_perturbed(bundle_for(from_spec("cycle:5")), 0.01, 1)
    assert excinfo.value.iteration == 0 and calls == ["cholesky", "svd"]
    # path:30 seed 3 is certified four times, then fails once and runs its
    # remaining 46 Jacobians through the SVD without trying again
    calls.clear()
    with pytest.raises(newton.NonConvergenceError) as excinfo:
        solve_perturbed(bundle_for(from_spec("path:30")), 0.01, 3)
    assert excinfo.value.result.iterations == 50
    assert calls == ["cholesky"] * 5 + ["svd"] * 46
