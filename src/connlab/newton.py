"""Damped Newton solves of the perturbed relation K = L - L^-1 on a pattern.

The unknown is a symmetric matrix supported on the intersection pattern
(mask(x, y) true iff the simplices x and y meet, diagonal included).  Only
the pattern coordinates of the equation are solved:

    F(X) = proj(K - X + X^-1) = 0

with Newton steps from the projected derivative dF[M] = -(M + X^-1 M X^-1),
materialized as a dense system over the upper-triangle support coordinates.
The step is damped by residual backtracking.  A singular Jacobian aborts
the solve with the smallest singular value attached; it is never
regularized.  What is certified is the degeneracy at the unperturbed
connection Laplacian: there the Jacobian is an integer matrix whose exact
determinant exact_jacobian_at_connection gives for direct verification.
Where it is 0 the implicit function theorem does not apply and no solution
branch through L is guaranteed; where it is nonzero the solution moves
smoothly with eps.  The determinant does not follow the graph's cycles: it
is 0 on cycles and the figure-8 and nonzero on paths and stars, but nonzero
on grid:2,3, which has cycles, and 0 on the tree bary:star:4.
A minimum-norm Newton step on a cycle can still reach the projected
equation for some perturbations, but at distance O(sqrt(eps)) from L, not
O(eps).

perturb_target perturbs every pattern coordinate, including vertex-edge
pairs where |H| is 0; for a single cycle the left null vector of the
Jacobian at L lies entirely on those pairs.

Everything in this module is floating point except that exact integer
Jacobian; the perturbed problem is not an integer problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exact import IntMatrix
from .operators import OperatorBundle, bundle_for


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


@dataclass(frozen=True)
class SupportPattern:
    """Symmetric boolean mask with a true diagonal; the space the solve lives in."""

    n: int
    mask: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        if len(self.mask) != self.n or any(len(r) != self.n for r in self.mask):
            raise ValueError("mask shape does not match n")
        for i in range(self.n):
            if not self.mask[i][i]:
                raise ValueError("pattern diagonal must be true")
            for j in range(i):
                if self.mask[i][j] != self.mask[j][i]:
                    raise ValueError("pattern must be symmetric")

    def coords(self) -> tuple[tuple[int, int], ...]:
        """Upper-triangle (including diagonal) coordinates where the mask is true."""
        return tuple(
            (i, j) for i in range(self.n) for j in range(i, self.n) if self.mask[i][j]
        )

    def off_coords(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j) for i in range(self.n) for j in range(i, self.n) if not self.mask[i][j]
        )

    def __contains__(self, coord: tuple[int, int]) -> bool:
        i, j = coord
        return bool(self.mask[i][j])


def intersection_pattern(bundle: OperatorBundle) -> SupportPattern:
    """mask(x, y) = true iff x and y intersect; exactly the support of L."""
    L = bundle.connection
    return SupportPattern(
        L.nrows, tuple(tuple(bool(x) for x in row) for row in L.rows)
    )


def inverse_support_pattern(bundle: OperatorBundle) -> SupportPattern:
    """The intersection pattern plus adjacent-vertex pairs.

    The exact inverse of the unperturbed L is supported here: its only
    entries outside the intersection pattern sit at pairs of adjacent
    vertices (value -1 there on every graph).
    """
    base = [list(row) for row in intersection_pattern(bundle).mask]
    for a, b in bundle.graph.edges:
        base[a][b] = base[b][a] = True
    return SupportPattern(len(base), tuple(tuple(r) for r in base))


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 50
    min_step: float = 2.0**-20
    rcond: float = 1e-12

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


def perturb_target(
    habs: IntMatrix, pattern: SupportPattern, eps: float, seed: int
) -> np.ndarray:
    """K = |H| + E with E symmetric, pattern-supported, uniform in [-eps, eps].

    One draw per upper-triangle pattern coordinate in row-major order, so a
    seed pins the perturbation exactly.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    rng = random.Random(seed)
    k = habs.to_float()
    for i, j in pattern.coords():
        delta = rng.uniform(-eps, eps)
        k[i, j] += delta
        if i != j:
            k[j, i] += delta
    return k


def _as_float(m: IntMatrix | np.ndarray) -> np.ndarray:
    return m.to_float() if isinstance(m, IntMatrix) else np.array(m, dtype=float)


def _residual_vector(K: np.ndarray, X: np.ndarray, Xinv: np.ndarray, coords) -> np.ndarray:
    full = K - X + Xinv
    return np.array([full[i, j] for i, j in coords])


def jacobian_at(X: np.ndarray, pattern: SupportPattern) -> np.ndarray:
    """Dense Jacobian of the projected map over the support coordinates.

    Column for basis direction M_ij (symmetrized unit coordinate) is
    -(M_ij + X^-1 M_ij X^-1) read off at the pattern coordinates.

    Entry (row (k, l), column (i, j)) is -(direct + Xinv[k, i] Xinv[j, l]
    + Xinv[k, j] Xinv[i, l]), the second product only when i != j.  direct is
    1 on the diagonal alone: coordinates are upper-triangle, so (k, l) equals
    (j, i) only when all four indices agree.
    """
    coords = np.array(pattern.coords(), dtype=np.intp).reshape(-1, 2)
    i, j = coords[:, 0], coords[:, 1]
    Xinv = np.linalg.inv(X)
    prop = Xinv[np.ix_(i, i)] * Xinv[np.ix_(j, j)].T
    cross = Xinv[np.ix_(i, j)]
    prop = np.where(i != j, prop + cross * cross.T, prop)
    return -(np.eye(len(coords)) + prop)


def exact_jacobian_at_connection(bundle: OperatorBundle, pattern: SupportPattern | None = None) -> IntMatrix:
    """The same Jacobian at X = L, as an exact integer matrix.

    L^-1 is integral, so the Jacobian at the unperturbed Laplacian is too,
    and whether it is singular becomes a question of integer arithmetic.
    The answer is not the tree / cycle split: the determinant is nonzero on
    paths and stars and 0 on cycles, but also nonzero on grid:2,3 and 0 on
    the tree bary:star:4.
    """
    if pattern is None:
        pattern = intersection_pattern(bundle)
    coords = pattern.coords()
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
    return IntMatrix(cols).transpose()


@dataclass(frozen=True)
class NewtonResult:
    solution: np.ndarray
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    sigma_min: float | None = None


def solve_hydrogen(
    K: np.ndarray | IntMatrix,
    pattern: SupportPattern,
    L0: np.ndarray | IntMatrix,
    cfg: NewtonConfig = NewtonConfig(),
) -> NewtonResult:
    """Newton iteration for proj(K - X + X^-1) = 0 over the pattern.

    Only the pattern coordinates of K enter.  Steps are damped by halving
    until the residual max-norm drops; a singular Jacobian raises
    SingularJacobianError with the smallest singular value, and running out
    of iterations or of line-search budget raises NonConvergenceError with
    the partial result attached.
    """
    K = _as_float(K)
    X = _as_float(L0)
    coords = pattern.coords()
    history: list[float] = []
    sigma_min_seen: float | None = None
    for iteration in range(cfg.max_iter + 1):
        Xinv = np.linalg.inv(X)
        r = _residual_vector(K, X, Xinv, coords)
        rmax = float(np.max(np.abs(r))) if len(r) else 0.0
        history.append(rmax)
        if rmax <= cfg.tol:
            return NewtonResult(X, True, iteration, rmax, tuple(history), sigma_min_seen)
        if iteration == cfg.max_iter:
            break
        J = jacobian_at(X, pattern)
        sigmas = np.linalg.svd(J, compute_uv=False)
        sigma_min_seen = float(sigmas[-1])
        if sigmas[-1] <= cfg.rcond * sigmas[0]:
            raise SingularJacobianError(
                f"support Jacobian is singular at iteration {iteration}: "
                f"sigma_min = {sigmas[-1]:.3e}, sigma_max = {sigmas[0]:.3e}",
                float(sigmas[-1]),
                float(sigmas[0]),
                iteration,
            )
        m = np.linalg.solve(J, -r)
        M = np.zeros_like(X)
        for (i, j), value in zip(coords, m):
            M[i, j] += value
            if i != j:
                M[j, i] += value
        step = 1.0
        accepted = False
        while step >= cfg.min_step:
            Xtry = X + step * M
            try:
                Xtry_inv = np.linalg.inv(Xtry)
            except np.linalg.LinAlgError:
                step /= 2.0
                continue
            rtry = _residual_vector(K, Xtry, Xtry_inv, coords)
            if float(np.max(np.abs(rtry))) < rmax:
                X = Xtry
                accepted = True
                break
            step /= 2.0
        if not accepted:
            result = NewtonResult(X, False, iteration, rmax, tuple(history), sigma_min_seen)
            raise NonConvergenceError(
                f"line search stalled at residual {rmax:.3e}", result
            )
    result = NewtonResult(X, False, cfg.max_iter, history[-1], tuple(history), sigma_min_seen)
    raise NonConvergenceError(
        f"no convergence after {cfg.max_iter} iterations; residual {history[-1]:.3e}",
        result,
    )


@dataclass(frozen=True)
class SupportReport:
    """Off-pattern magnitudes of a candidate solution and its inverse."""

    off_pattern_matrix_max: float
    off_pattern_inverse_max: float
    off_inverse_support_max: float | None
    tolerance: float

    @property
    def matrix_ok(self) -> bool:
        return self.off_pattern_matrix_max <= self.tolerance


def verify_support(
    X: np.ndarray | IntMatrix,
    pattern: SupportPattern,
    inverse_pattern: SupportPattern | None = None,
    tol: float = 1e-8,
) -> SupportReport:
    """Measure how far X and X^-1 stray outside their supposed supports.

    The inverse is measured twice when inverse_pattern is supplied: once
    against the plain intersection pattern and once against the larger
    pattern that also allows adjacent-vertex pairs, which is where the
    exact inverse genuinely lives.
    """
    X = _as_float(X)
    Xinv = np.linalg.inv(X)

    def off_max(mat: np.ndarray, pat: SupportPattern) -> float:
        vals = [abs(mat[i, j]) for i, j in pat.off_coords()]
        return float(max(vals)) if vals else 0.0

    return SupportReport(
        off_pattern_matrix_max=off_max(X, pattern),
        off_pattern_inverse_max=off_max(Xinv, pattern),
        off_inverse_support_max=(
            off_max(Xinv, inverse_pattern) if inverse_pattern is not None else None
        ),
        tolerance=tol,
    )


def solve_perturbed(
    g_or_bundle,
    eps: float,
    seed: int,
    cfg: NewtonConfig = NewtonConfig(),
) -> tuple[NewtonResult, SupportReport]:
    """Convenience wrapper: perturb |H| on the pattern and solve from L.

    Returns the Newton result and the support report of the solution.
    Singular Jacobians and non-convergence propagate as exceptions.
    """
    bundle = bundle_for(g_or_bundle)
    pattern = intersection_pattern(bundle)
    K = perturb_target(bundle.hodge_signless, pattern, eps, seed)
    result = solve_hydrogen(K, pattern, bundle.connection, cfg)
    report = verify_support(result.solution, pattern, inverse_support_pattern(bundle))
    return result, report
