"""Damped Newton solves of the perturbed relation K = L - L^-1 on L's pattern.

Every routine here takes the graph's OperatorBundle, whose connection
matrix L is the pattern: the unknown is a symmetric matrix supported where
L is nonzero (L(x, y) is nonzero iff the simplices x and y meet, diagonal
included).  L is symmetric with a full diagonal, so its support
coordinates are the upper-triangle entries (i, j), i <= j, of its
compressed rows, in row-major order.  Only those coordinates of the
equation are solved:

    F(X) = proj(K - X + X^-1) = 0

with Newton steps from the projected derivative dF[M] = -(M + X^-1 M X^-1),
materialized as a dense system over the upper-triangle support coordinates.
The step is damped by residual backtracking.  A singular Jacobian, one
with sigma_min <= RCOND sigma_max, aborts the solve with its extreme
singular values attached; it is never regularized.  Most Jacobians are far
from that threshold, and a Cholesky factorization of J^T J less a margin
proves it without an SVD (_certified_nonsingular); the SVD runs only where
that factorization fails, and from then on for the rest of the solve, so
the singular values of an abort always come from it.  What is certified
exactly is the degeneracy at the unperturbed connection Laplacian: there
the Jacobian over L's coordinates is an integer matrix, which
exact_jacobian_at_connection builds for an exact determinant.  It is
J(L) = -(I + P (g (x) g) Q) over the compressed rows of g = L^-1, since
vec(g M g) = (g (x) g) vec(M) for symmetric g: Q spreads each coordinate
over vec(M_ij) and P reads the coordinates back.
Where it is 0 the implicit function theorem does not apply and no solution
branch through L is guaranteed; where it is nonzero the solution moves
smoothly with eps.  The determinant does not follow the graph's cycles: it
is 0 on cycles and the figure-8 and nonzero on paths and stars, but nonzero
on grid:2,3, which has cycles, and 0 on the tree bary:star:4.
A minimum-norm Newton step on a cycle can still reach the projected
equation for some perturbations, but at distance O(sqrt(eps)) from L, not
O(eps).

perturb_target perturbs every coordinate of L, including vertex-edge
pairs where |H| is 0; for a single cycle the left null vector of the
Jacobian at L lies entirely on those pairs.  verify_support measures a
solution X off L's pattern, and X^-1 off it and off the inverse-support
pattern (supp L with supp g), as plain magnitudes: no tolerance is
applied to them here, and the newton command prints them.

Everything in this module is floating point except that exact integer
Jacobian; the perturbed problem is not an integer problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exact import IntMatrix, linear_combination
from .operators import OperatorBundle


class NewtonError(RuntimeError):
    pass


class NonConvergenceError(NewtonError):
    """Raised after max_iter or a stalled line search; carries the partial result."""

    def __init__(self, message: str, result: "NewtonResult"):
        super().__init__(message)
        self.result = result


class SingularJacobianError(NewtonError):
    """The support-subspace Jacobian is numerically singular; solve aborted."""

    def __init__(self, message: str, sigma_min: float, sigma_max: float, iteration: int):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        self.iteration = iteration


def _coords(m: IntMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The upper-triangle support coordinates (rows, cols) of m, L or
    inverse_support_pattern, in row-major order; both are symmetric with a
    full diagonal by construction."""
    rows, cols, _ = m.triplets()
    upper = rows <= cols
    return rows[upper], cols[upper]


def _add_symmetric(out: np.ndarray, coords, values: np.ndarray) -> np.ndarray:
    """out with values added at each coordinate (i, j) and, off the
    diagonal, at (j, i)."""
    i, j = coords
    off = i != j
    out[i, j] += values
    out[j[off], i[off]] += values[off]
    return out


def inverse_support_pattern(bundle: OperatorBundle) -> IntMatrix:
    """supp L together with supp g, g = L^-1.

    The exact inverse of the unperturbed L is supported here: its only
    entries outside the intersection pattern sit at pairs of adjacent
    vertices (value -1 there on every graph).  L has no negative entry, so
    nothing cancels in the sum.
    """
    return linear_combination((bundle.connection, 1), (bundle.green.abs(), 1))


# A Jacobian with sigma_min <= RCOND sigma_max is singular; the line search
# gives up once halving takes the step below MIN_STEP.
RCOND = 1e-12
MIN_STEP = 2.0**-20


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


def perturb_target(bundle: OperatorBundle, eps: float, seed: int) -> np.ndarray:
    """K = |H| + E with E symmetric, supported on L, uniform in [-eps, eps].

    One draw per upper-triangle coordinate of L in row-major order, so a
    seed pins the perturbation exactly.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    coords = _coords(bundle.connection)
    rng = random.Random(seed)
    deltas = np.array([rng.uniform(-eps, eps) for _ in range(len(coords[0]))])
    return _add_symmetric(bundle.hodge_signless.to_float(), coords, deltas)


def _residual_vector(K: np.ndarray, X: np.ndarray, Xinv: np.ndarray, coords) -> np.ndarray:
    return (K - X + Xinv)[coords]


def jacobian_at(Xinv: np.ndarray, coords) -> np.ndarray:
    """Dense Jacobian of the projected map at X over the support coordinates
    (rows, cols) of a pattern, from Xinv = X^-1.

    Column for basis direction M_ij (symmetrized unit coordinate) is
    -(M_ij + X^-1 M_ij X^-1) read off at the pattern coordinates.

    Entry (row (k, l), column (i, j)) is -(direct + Xinv[k, i] Xinv[j, l]
    + Xinv[k, j] Xinv[i, l]), the second product only when i != j.  direct is
    1 on the diagonal alone: coordinates are upper-triangle, so (k, l) equals
    (j, i) only when all four indices agree.
    """
    i, j = coords
    rows_i, rows_j = Xinv[i], Xinv[j]
    J = rows_i[:, i] * rows_j[:, j].T
    cross = rows_i[:, j]
    cross = cross * cross.T
    cross[:, i == j] = 0.0
    J += cross
    # -0.0 + 0.0 is +0.0: the signed zeros of -(I + prop), then the
    # diagonal's 1 and the sign
    J += 0.0
    J.flat[:: len(i) + 1] += 1.0
    return np.negative(J, out=J)


def exact_jacobian_at_connection(bundle: OperatorBundle) -> IntMatrix:
    """The same Jacobian at X = L over L's own pattern, as an exact integer
    matrix.

    L^-1 = g is integral, so the Jacobian at the unperturbed Laplacian is
    too, and whether it is singular becomes a question of integer
    arithmetic.  The answer is not the tree / cycle split: the determinant
    is nonzero on paths and stars and 0 on cycles, but also nonzero on
    grid:2,3 and 0 on the tree bary:star:4.

    J(L) = -(I + P (g (x) g) Q): Q has a 1 at i n + j in column (i, j) and,
    off the diagonal, a second at j n + i, so column (i, j) of (g (x) g) Q
    is vec(g M_ij g); P reads coordinate (k, l) at k n + l.  The product
    runs as (g (x) I)(I (x) g), nnz(g) n terms a factor where g (x) g would
    hold nnz(g)^2.
    """
    i, j = _coords(bundle.connection)
    n, m, off = bundle.size, len(i), i != j
    c = np.arange(m)
    spread = np.concatenate((i * n + j, j[off] * n + i[off]))  # vec(M_ij), column by column
    ones = np.ones(len(spread), dtype=np.int64)
    P = IntMatrix.from_triplets(c, spread[:m], ones[:m], m, n * n)
    Q = IntMatrix.from_triplets(spread, np.concatenate((c, c[off])), ones, n * n, m)
    g, eye = bundle.green, IntMatrix.identity(n)
    return linear_combination((IntMatrix.identity(m), -1), (P @ g.kron(eye) @ eye.kron(g) @ Q, -1))


def _certified_nonsingular(J: np.ndarray) -> bool:
    """Whether a Cholesky factorization proves sigma_min(J) far above
    RCOND sigma_max(J), so that the singular-value test cannot fire.

    J is m x m; t = trace(G), G = fl(J^T J), is ||J||_F^2 >= sigma_max^2 up
    to rounding.  The factorization of G - tau I is tried, with tau = c t
    and c = max(1e-10, 100 (m + 1) eps).  The Gram product is within
    gamma_m || |J| ||_2^2 <= gamma_m t of J^T J in the 2-norm, and a
    factorization that runs to completion is exact for a matrix within
    gamma_(m+1) ||R||_F^2 ~ gamma_(m+1) t of G - tau I (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm. 10.3), gamma_k ~ k u and
    u = eps / 2.  So success gives sigma_min^2 >= tau - 2 (m + 1) u t
    (1 + O(m u)) >= 0.99 tau: sigma_min >= 0.99e-5 sigma_max, seven orders
    above RCOND, a margin of 100 over the rounding.  Failure proves
    nothing, and the caller falls back to the SVD.  A non-finite J has a
    non-finite t and is never certified.
    """
    m = len(J)
    G = J.T @ J
    t = float(np.trace(G))
    if not np.isfinite(t):
        return False
    G.flat[:: m + 1] -= max(1e-10, 100 * (m + 1) * np.finfo(float).eps) * t
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class NewtonResult:
    solution: np.ndarray
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...]


def solve_hydrogen(bundle: OperatorBundle, K: np.ndarray, cfg: NewtonConfig) -> NewtonResult:
    """Newton iteration for proj(K - X + X^-1) = 0 over L's coordinates,
    from X = L.

    Only those coordinates of K enter.  Steps are damped by halving
    until the residual max-norm drops; a singular Jacobian raises
    SingularJacobianError with the smallest singular value, and running out
    of iterations or of line-search budget raises NonConvergenceError with
    the partial result attached.

    Each Jacobian is first offered to _certified_nonsingular, whose
    Cholesky factorization of J^T J - tau I proves sigma_min >= 0.99e-5
    sigma_max when it succeeds; then the singular-value test cannot fire
    and no SVD runs.  When it fails, the SVD decides as before, and the
    solve stops trying the certificate: Jacobians near the margin come in
    runs along a solve, and a failed factorization costs about as much as
    a successful one.  Iterates, results and errors are those of an SVD
    on every iteration.
    """
    X = bundle.connection.to_float()
    coords = _coords(bundle.connection)
    history: list[float] = []
    Xinv = np.linalg.inv(X)  # then each accepted trial carries its inverse
    certify = True
    for iteration in range(cfg.max_iter + 1):
        r = _residual_vector(K, X, Xinv, coords)
        rmax = float(np.max(np.abs(r))) if len(r) else 0.0
        history.append(rmax)
        if rmax <= cfg.tol:
            return NewtonResult(X, True, iteration, rmax, tuple(history))
        if iteration == cfg.max_iter:
            break
        J = jacobian_at(Xinv, coords)
        certify = certify and _certified_nonsingular(J)
        if not certify:
            sigmas = np.linalg.svd(J, compute_uv=False)
            if sigmas[-1] <= RCOND * sigmas[0]:
                raise SingularJacobianError(
                    f"support Jacobian is singular at iteration {iteration}: "
                    f"sigma_min = {sigmas[-1]:.3e}, sigma_max = {sigmas[0]:.3e}",
                    float(sigmas[-1]),
                    float(sigmas[0]),
                    iteration,
                )
        M = _add_symmetric(np.zeros_like(X), coords, np.linalg.solve(J, -r))
        step = 1.0
        accepted = False
        while step >= MIN_STEP:
            Xtry = X + step * M
            try:
                Xtry_inv = np.linalg.inv(Xtry)
            except np.linalg.LinAlgError:
                step /= 2.0
                continue
            rtry = _residual_vector(K, Xtry, Xtry_inv, coords)
            if float(np.max(np.abs(rtry))) < rmax:
                X, Xinv = Xtry, Xtry_inv
                accepted = True
                break
            step /= 2.0
        if not accepted:
            result = NewtonResult(X, False, iteration, rmax, tuple(history))
            raise NonConvergenceError(
                f"line search stalled at residual {rmax:.3e}", result
            )
    result = NewtonResult(X, False, cfg.max_iter, history[-1], tuple(history))
    raise NonConvergenceError(
        f"no convergence after {cfg.max_iter} iterations; residual {history[-1]:.3e}",
        result,
    )


@dataclass(frozen=True)
class SupportReport:
    """Off-pattern magnitudes of a candidate solution and its inverse."""

    off_pattern_matrix_max: float
    off_pattern_inverse_max: float
    off_inverse_support_max: float


def verify_support(bundle: OperatorBundle, X: np.ndarray) -> SupportReport:
    """Measure how far X and X^-1 stray outside their supposed supports.

    The inverse is measured twice: once against L's pattern and once
    against inverse_support_pattern, the larger pattern that also allows
    adjacent-vertex pairs, which is where the exact inverse genuinely lives.
    """
    Xinv = np.linalg.inv(X)

    def off_max(mat: np.ndarray, pat: IntMatrix) -> float:
        # the upper triangle off the pattern: X^-1 from inv need not be bit-symmetric
        off = np.triu(np.ones(mat.shape, dtype=bool))
        off[_coords(pat)] = False
        return float(np.abs(mat[off]).max(initial=0.0))

    return SupportReport(
        off_pattern_matrix_max=off_max(X, bundle.connection),
        off_pattern_inverse_max=off_max(Xinv, bundle.connection),
        off_inverse_support_max=off_max(Xinv, inverse_support_pattern(bundle)),
    )


def solve_perturbed(
    bundle: OperatorBundle,
    eps: float,
    seed: int,
    cfg: NewtonConfig = NewtonConfig(),
) -> tuple[NewtonResult, SupportReport]:
    """Convenience wrapper: perturb |H| on L's pattern and solve from L.

    Returns the Newton result and the support report of the solution.
    Singular Jacobians and non-convergence propagate as exceptions.
    """
    result = solve_hydrogen(bundle, perturb_target(bundle, eps, seed), cfg)
    return result, verify_support(bundle, result.solution)
