"""Acceptance suite: sixteen numbered criteria, one test and one printed
pass/fail line each, at the stated tolerances.

Three criteria assert the theorem behind a target that the mathematics
refutes as first stated; the printed detail lines keep the counterexamples:

* criterion 08: the k-walk bound is sound for every k, falls along k | k'
  (P(k) is submultiplicative) and meets the sqrt(n) rate envelope.  It is
  not monotone from k=2 to k=3 (exact counterexamples K2: 2.0 then
  2.20091, and P3: 3.15959 then 3.17771), and at k=24 it can still sit
  0.14 above rho(|H|), since only the limit k -> infinity is promised.
* criterion 13: every seed converges exactly when the integer Jacobian
  determinant at L is nonzero (path:4 and star:3 here); for cycles and the
  figure-8 it is 0 and every solve aborts at iteration 0 by contract.  The
  inverse of the solution is measured off the inverse-support pattern,
  where it is 0 at eps = 0 and grows linearly in eps; off the plain
  intersection pattern it carries the entries -1 of g on adjacent-vertex
  pairs, so no 1e-8 target holds there.
* criterion 15: sigma(L) lies in [-1, 0) union [1, inf) with e negative and
  v positive eigenvalues, so the gap at that block boundary is at least 1.
  The top gap lambda_n - lambda_{n-1} is not bounded below by 1 (0.9333 on
  the 6-cycle, shrinking with length).

One more, unnumbered test checks two exact corollaries of the Schur
reciprocity certificate over the corpus: L has v positive and e negative
eigenvalues, and the eigenvalue 1 of L^2 has the multiplicity of the
signless kernels, even when n is even (Kirby's hypothesis).
"""

import math
import random
import time
from itertools import accumulate

from connlab.dynamics import (
    jacobi_residual,
    perron_limits,
    orbit,
    quaternion_solution,
)
from connlab.exact import IntMatrix, det, field_reduce, linear_combination
from connlab.graphs import from_spec
from connlab.newton import (
    NewtonConfig,
    NonConvergenceError,
    SingularJacobianError,
    exact_jacobian_at_connection,
    solve_perturbed,
)
from connlab.operators import (
    bundle_for,
    hydrogen_residual,
    supersymmetry_report,
)
from connlab.products import product_checks, product_connection, product_hodge, spectral_errors
from connlab.spectra import (
    block_gap,
    bound_kwalk,
    bounds_report,
    connection_sign_split,
    eig_sym,
)
from connlab.tables import (
    BARY_STAR4_RHO,
    EVEN_CYCLE_PREFIX,
    EVEN_CYCLE_RANGE,
    LINEAR3_BHS,
    LINEAR3_DUAL_VERTEX,
    REFERENCE_TABLES,
    row_max_error,
)
from conftest import build_corpus
from oracles import (
    charpoly,
    degrees,
    field_inverse,
    from_rows,
    inverse_unimodular,
    limit_functional_equation_residual,
    reciprocal_sign,
    spectral_function_sup_distance,
)

PRODUCT_PAIRS = [
    ("complete:2", "complete:2"),
    ("complete:2", "cycle:4"),
    ("complete:2", "cycle:5"),
    ("complete:2", "path:5"),
    ("complete:2", "figure8"),
    ("complete:3", "complete:3"),
    ("complete:3", "path:3"),
    ("path:2", "path:5"),
    ("path:3", "path:4"),
    ("path:3", "star:3"),
    ("path:4", "cycle:4"),
    ("cycle:3", "cycle:5"),
    ("cycle:3", "star:4"),
    ("cycle:4", "cycle:4"),
    ("cycle:6", "complete:2"),
    ("star:3", "star:3"),
    ("star:3", "path:4"),
    ("star:4", "cycle:3"),
    ("wheel:4", "complete:2"),
    ("figure8", "path:3"),
]


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def test_criterion_01_exact_hydrogen_identity_under_30s():
    t0 = time.perf_counter()
    fresh = build_corpus()
    worst = 0
    for bundle in fresh.values():
        worst = max(worst, hydrogen_residual(bundle).max_abs())
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and len(fresh) >= 200 and elapsed < 30.0
    _report(
        1,
        ok,
        f"L - 1/L - |H| max residual {worst} over {len(fresh)} graphs in {elapsed:.1f}s",
    )


def test_criterion_02_green_star_equals_elimination(corpus):
    mismatches = []
    for spec, bundle in corpus.items():
        if inverse_unimodular(bundle.connection).rows != bundle.green.rows:
            mismatches.append(spec)
    _report(
        2,
        not mismatches,
        f"star formula == elimination inverse on {len(corpus)} graphs"
        + (f"; mismatches: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_03_energy_theorem(corpus):
    bad = [
        spec
        for spec, bundle in corpus.items()
        if bundle.green.entry_sum() != bundle.v - bundle.e
    ]
    bad_products = []
    for sa, sb in PRODUCT_PAIRS:
        rep = product_checks(bundle_for(from_spec(sa)), bundle_for(from_spec(sb)))
        if not rep.energy_ok:
            bad_products.append((sa, sb))
    ok = not bad and not bad_products and len(PRODUCT_PAIRS) >= 20
    _report(
        3,
        ok,
        f"sum 1/L = v - e on {len(corpus)} graphs; chi(A)chi(B) on {len(PRODUCT_PAIRS)} pairs",
    )


def test_criterion_04_unimodularity(corpus):
    bad = [spec for spec, b in corpus.items() if b.connection_det not in (-1, 1)]
    _report(4, not bad, f"det L in {{-1, +1}} on {len(corpus)} graphs" + (f"; bad: {bad[:3]}" if bad else ""))


def test_criterion_05_reference_tables_within_tolerance():
    t0 = time.perf_counter()
    worst = 0.0
    rows = 0
    for family, table in REFERENCE_TABLES.items():
        for spec, expected in table:
            got = bounds_report(bundle_for(from_spec(spec))).row()
            worst = max(worst, row_max_error(got, expected))
            rows += 1
    for n in EVEN_CYCLE_RANGE:
        got = bounds_report(bundle_for(from_spec(f"cycle:{n}"))).row()
        worst = max(worst, max(abs(g - e) for g, e in zip(got[:4], EVEN_CYCLE_PREFIX)))
        rows += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 120.0
    _report(5, ok, f"{rows} reference rows, worst cell error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_worked_example_values():
    rho = bounds_report(bundle_for(from_spec("bary:star:4"))).rho_H
    rep3 = bounds_report(bundle_for(from_spec("path:3")))
    ok = (
        abs(rho - BARY_STAR4_RHO) < 1e-3
        and abs(rep3.bound_dual_vertex - LINEAR3_DUAL_VERTEX) < 1e-3
        and abs(rep3.bound_bhs - LINEAR3_BHS) < 1e-3
    )
    _report(
        6,
        ok,
        f"refined star rho {rho:.5f} (want {BARY_STAR4_RHO}), "
        f"3-path dual {rep3.bound_dual_vertex} bhs {rep3.bound_bhs:.5f}",
    )


def test_criterion_07_wielandt_domination(corpus):
    worst_violation = -math.inf
    worst_bipartite_gap = 0.0
    for spec, b in corpus.items():
        rho_signed = eig_sym(b.kirchhoff).top
        rho_signless = eig_sym(b.kirchhoff_signless).top
        worst_violation = max(worst_violation, rho_signed - rho_signless)
        if spec.startswith("bary:"):
            worst_bipartite_gap = max(worst_bipartite_gap, abs(rho_signed - rho_signless))
    ok = worst_violation <= 1e-9 and worst_bipartite_gap < 1e-8
    _report(
        7,
        ok,
        f"rho(H0) - rho(|H0|) max {worst_violation:.2e}; bipartite equality gap {worst_bipartite_gap:.2e}",
    )


def test_criterion_08_spectral_link_and_kwalk(corpus):
    # With A = A(G') = L - I and P(k) the max row sum of A^k:
    #   soundness  P(k) >= rho(A)^k, so r_k >= rho(L) and the bound >= rho(|H|);
    #   divisors   P is submultiplicative, P(mk) <= P(k)^m, so the bound can
    #              only fall along k | k' (from 2 to 3 it may rise);
    #   rate       P(k) <= sqrt(n) rho(A)^k, so r_k <= 1 + (rho(L) - 1) n^(1/(2k)).
    worst_link = 0.0
    unsound = []
    divisor_violations = []
    rate_violations = []
    rises_2_to_3 = []
    worst_rate_share = 0.0
    worst_k24 = 0.0
    for spec, b in corpus.items():
        rho_l = eig_sym(b.connection).top
        rho_habs = eig_sym(b.hodge_signless).top
        worst_link = max(worst_link, abs(rho_habs - (rho_l - 1.0 / rho_l)))
        ks = (1, 2, 3, 6, 12, 24) if b.size <= 30 else (1, 2, 3, 6, 12)
        bound = bound_kwalk(b, ks)
        for k, value in bound.items():
            if value < rho_habs - 1e-9:
                unsound.append((spec, k, value, rho_habs))
            r = 1.0 + (rho_l - 1.0) * b.size ** (1.0 / (2 * k))
            envelope = r - 1.0 / r
            if value > envelope + 1e-9:
                rate_violations.append((spec, k, value, envelope))
            elif envelope > rho_habs:
                worst_rate_share = max(worst_rate_share, (value - rho_habs) / (envelope - rho_habs))
        for k in ks:
            for k2 in ks:
                if k2 > k and k2 % k == 0 and bound[k2] > bound[k] + 1e-12:
                    divisor_violations.append((spec, k, k2, bound[k], bound[k2]))
        if bound[3] > bound[2] + 1e-12:
            rises_2_to_3.append((spec, [round(bound[k], 5) for k in (1, 2, 3, 6, 12)]))
        if 24 in bound:
            worst_k24 = max(worst_k24, bound[24] - rho_habs)
    ok = worst_link < 1e-8 and not unsound and not divisor_violations and not rate_violations
    _report(
        8,
        ok,
        f"link residual {worst_link:.2e}; {len(unsound)} unsound, "
        f"{len(divisor_violations)} rises along k | k', {len(rate_violations)} above the "
        f"sqrt(n) rate envelope (worst gap {worst_rate_share:.2f} of the envelope); "
        f"k24 gap {worst_k24:.3f}; rises from k=2 to k=3 (allowed) on {len(rises_2_to_3)} "
        f"graphs, e.g. {rises_2_to_3[:3]}"
        + (f"; failures {(unsound + divisor_violations + rate_violations)[:3]}" if not ok else ""),
    )


def _random_unimodular(n: int, ops: int, seed: int) -> IntMatrix:
    rng = random.Random(seed)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return from_rows(rows)


def test_criterion_09_squared_charpoly_reciprocity(corpus):
    bad = []
    for spec, b in corpus.items():
        p = charpoly(b.connection @ b.connection)
        want = 1 if b.size % 2 == 0 else -1
        if reciprocal_sign(p) != want:
            bad.append(spec)
    control = _random_unimodular(6, 40, seed=11)
    control_sign = reciprocal_sign(charpoly(control @ control))
    ok = not bad and control_sign is None
    _report(
        9,
        ok,
        f"charpoly(L^2) reciprocal with parity sign on {len(corpus)} graphs; "
        f"random unimodular control sign: {control_sign}",
    )


def _multiplicity_of_root_one(coeffs: tuple[int, ...]) -> int:
    mult, c = 0, list(coeffs)
    while len(c) > 1 and sum(c) == 0:
        # p(x) = (x - 1) q(x): q's coefficients are the tail sums of p's
        c = list(accumulate(reversed(c[1:])))[::-1]
        mult += 1
    return mult


def test_kirby_and_inertia_follow_from_the_schur_certificate(corpus, squared_charpolys):
    # S = -I_e makes L a sum of 2x2 blocks [[1, s], [s, s^2 - 1]] over the
    # singular values s > 0 of its vertex-edge block U, of eigenvalues l and
    # -1/l, plus 1 on ker U^T and -1 on ker U.  So L has v positive and e
    # negative eigenvalues (Sylvester), and 1 is an eigenvalue of L^2 of
    # multiplicity n - 2 rank U = |kernel0| + |kernel1| of the signless
    # incidence U^T, which is even when n is even (Kirby's hypothesis)
    bad = []
    for spec, b in corpus.items():
        ss = supersymmetry_report(b)
        ones = _multiplicity_of_root_one(squared_charpolys[spec].coeffs)
        eigenvalues = eig_sym(b.connection).eigenvalues
        inertia = (sum(lam > 0 for lam in eigenvalues), sum(lam < 0 for lam in eigenvalues))
        if (
            b.reciprocity_sign is None
            or ones != ss.signless_kernel0 + ss.signless_kernel1
            or (b.size % 2 == 0 and ones % 2)
            or inertia != (b.v, b.e)
        ):
            bad.append((spec, ones, inertia))
    assert bad == []
    # bipartite with a cycle, odd cycle, tree: 1 + 1, 0 + 0 and 1 + 0
    pinned = {"cycle:4": 2, "cycle:5": 0, "path:3": 1}
    assert {s: _multiplicity_of_root_one(squared_charpolys[s].coeffs) for s in pinned} == pinned


def test_criterion_10_jacobi_equation(corpus):
    worst = 0
    for b in corpus.values():
        n = b.size
        lsq = b.connection @ b.connection
        ginv_sq = b.green @ b.green
        habs_sq = b.hodge_signless @ b.hodge_signless
        resid = (lsq - linear_combination((IntMatrix.identity(n), 2)) + ginv_sq) - habs_sq
        worst = max(worst, resid.max_abs())
    traj_worst = 0
    for spec in ("complete:2", "cycle:4", "figure8", "gnm:12,15:seed=0"):
        b = bundle_for(from_spec(spec))
        psi0 = tuple(1 if i == 0 else 0 for i in range(b.size))
        traj = orbit(b, psi0, -4, 4)
        traj_worst = max(traj_worst, jacobi_residual(traj, b.dirac_signless))
    quat_worst = 0
    for spec in ("cycle:4", "complete:2", "figure8"):
        b = bundle_for(from_spec(spec))
        n = b.size
        unit = lambda i: tuple(1 if j == i % n else 0 for j in range(n))
        branches = quaternion_solution(b, (unit(0), unit(1), unit(2), unit(3)), 4)
        for br in branches:
            quat_worst = max(quat_worst, jacobi_residual(br, b.dirac_signless))
    ok = worst == 0 and traj_worst == 0 and quat_worst == 0
    _report(
        10,
        ok,
        f"L^2 - 2 + L^-2 = |H|^2 residual {worst}; walk residual {traj_worst}; "
        f"quaternion branch residual {quat_worst}",
    )


def test_criterion_11_finite_field_reversibility(corpus):
    # the hydrogen residual reduced mod p reads the certified g mod p as L^-1 over F_p;
    # Gauss-Jordan elimination over F_p (tests/oracles.py) checks that
    # reading on every corpus graph, at word-size primes and past 2^32 too
    primes = (2, 3, 5, 7, 2**31 - 1, 4294967311)
    bad = []
    for spec, b in corpus.items():
        for p in primes:
            if b.connection_det % p == 0:
                bad.append((spec, p, "det divisible"))
                continue
            if field_inverse(field_reduce(b.connection, p)) != b.reduced("green", p):
                bad.append((spec, p, "g mod p is not the inverse of L mod p"))
            if not field_reduce(hydrogen_residual(b), p).is_zero():
                bad.append((spec, p, "hydrogen"))
    # round trip on a sample, exact in both directions
    for spec in ("cycle:4", "figure8", "gnm:20,50:seed=301"):
        b = bundle_for(from_spec(spec))
        for p in primes:
            lp = field_reduce(b.connection, p)
            gp = b.reduced("green", p)
            state = tuple(i % p for i in range(1, b.size + 1))
            fwd = state
            for _ in range(5):
                fwd = lp.apply(fwd)
            back = fwd
            for _ in range(5):
                back = gp.apply(back)
            if back != state:
                bad.append((spec, p, "round trip"))
    _report(
        11,
        not bad,
        f"mod-p inverse, hydrogen, and round trips for p in {primes} on {len(corpus)} graphs"
        + (f"; failures {bad[:3]}" if bad else ""),
    )


def test_criterion_12_perron_limits():
    rep4 = perron_limits(bundle_for(from_spec("cycle:4")))
    rep8 = perron_limits(bundle_for(from_spec("figure8")))
    sign_changes = any(x > 0 for x in rep4.w) and any(x < 0 for x in rep4.w)
    ok = (
        rep4.forward_residuals[-1] < 1e-6
        and rep8.forward_residuals[-1] < 1e-6
        and all(x > 0 for x in rep4.v)
        and all(x > 0 for x in rep8.v)
        and sign_changes
    )
    _report(
        12,
        ok,
        f"|L^60/rho^60 - vv*| = {rep4.forward_residuals[-1]:.2e} (C4), {rep8.forward_residuals[-1]:.2e} (fig8); "
        f"v > 0 both; w alternates on C4: {sign_changes}",
    )


def test_criterion_13_newton_perturbations():
    # Dichotomy: where the exact integer Jacobian at L is invertible the
    # implicit function theorem gives a nearby solution and every seed
    # converges; where its determinant is 0 (cycles, the figure-8) the solve
    # aborts at iteration 0 by contract instead of regularizing.
    cfg = NewtonConfig(tol=1e-10, max_iter=20)
    outcomes = {}
    dichotomy_ok = True
    matrix_off_worst = 0.0
    at_zero_worst = 0.0
    slopes = []
    for spec in ("cycle:5", "path:4", "star:3", "figure8"):
        b = bundle_for(from_spec(spec))
        regular_point = det(exact_jacobian_at_connection(b)) != 0
        converged = 0
        aborted = 0
        for seed in range(10):
            _, support = solve_perturbed(b, eps=0.0, seed=seed, cfg=cfg)
            at_zero_worst = max(at_zero_worst, support.off_inverse_support_max)
            try:
                result, support = solve_perturbed(b, eps=0.01, seed=seed, cfg=cfg)
            except SingularJacobianError as exc:
                if exc.iteration == 0 and exc.sigma_min < 1e-10:
                    aborted += 1
                continue
            except NonConvergenceError:
                continue
            if result.converged and result.residual < 1e-10:
                converged += 1
            matrix_off_worst = max(matrix_off_worst, support.off_pattern_matrix_max)
            if regular_point:
                _, half = solve_perturbed(b, eps=0.005, seed=seed, cfg=cfg)
                matrix_off_worst = max(matrix_off_worst, half.off_pattern_matrix_max)
                slopes.append((support.off_inverse_support_max / 0.01, half.off_inverse_support_max / 0.005))
        outcomes[spec] = (converged, aborted)
        dichotomy_ok &= (converged, aborted) == ((10, 0) if regular_point else (0, 10))
    # g = L^-1 vanishes off the inverse-support pattern, and at a regular
    # point the solution is smooth in eps, so there X^-1 starts at 0 and moves
    # at first order in eps: its slope stays put when eps halves
    linear_ok = bool(slopes) and all(
        0.0 < s1 <= 2.0 and 0.0 < s2 <= 2.0 and abs(s2 / s1 - 1.0) <= 0.2 for s1, s2 in slopes
    )
    worst_slope = max((max(pair) for pair in slopes), default=math.nan)
    # near-singular detection on a C4 perturbation family
    detected = False
    try:
        solve_perturbed(bundle_for(from_spec("cycle:4")), eps=0.01, seed=0)
    except SingularJacobianError as exc:
        detected = exc.sigma_min < 1e-10
    ok = dichotomy_ok and matrix_off_worst == 0.0 and at_zero_worst <= 1e-12 and linear_ok and detected
    _report(
        13,
        ok,
        f"converged/aborted per graph {outcomes} (all converge iff det J(L) != 0: {dichotomy_ok}); "
        f"off-pattern |X| {matrix_off_worst:.1e}; off inverse-support |X^-1| {at_zero_worst:.1e} "
        f"at eps=0, at most {worst_slope:.2f} eps at eps=0.01 and 0.005, linear: {linear_ok}; "
        f"C4 singular Jacobian detected: {detected}",
    )


def test_criterion_14_product_spectra():
    worst_mult = worst_add = 0.0
    for sa, sb in PRODUCT_PAIRS[:12]:
        ga, gb = bundle_for(from_spec(sa)), bundle_for(from_spec(sb))
        m, a = spectral_errors(ga, gb, product_connection(ga, gb), product_hodge(ga, gb))
        worst_mult = max(worst_mult, m)
        worst_add = max(worst_add, a)
    rep = product_checks(bundle_for(from_spec("complete:2")), bundle_for(from_spec("complete:2")))
    ok = worst_mult < 1e-8 and worst_add < 1e-8 and rep.hydrogen_residual_max != 0
    _report(
        14,
        ok,
        f"multiplicativity {worst_mult:.2e}, additivity {worst_add:.2e} on 12 pairs; "
        f"K2xK2 hydrogen residual {rep.hydrogen_residual_max} (nonzero expected)",
    )


def test_criterion_15_schur_majorization_and_gaps(corpus):
    # |H| = L - L^-1 >= 0 forces lambda - 1/lambda >= 0 for every eigenvalue
    # of L, so sigma(L) lies in [-1, 0) union [1, inf), with e negative and v
    # positive eigenvalues; the gap of at least 1 sits at that block boundary.
    # The top gap lambda_n - lambda_{n-1} has no such bound (cycles >= 6).
    worst_excess = -math.inf
    worst_trace = 0.0
    fiedler_bad = []
    split_failures = []
    top_gap_below_one = []
    for spec, b in corpus.items():
        l_spec = eig_sym(b.connection)
        sums = list(accumulate(l_spec.eigenvalues))
        worst_excess = max(worst_excess, max(s - t for t, s in enumerate(sums, start=1)))
        worst_trace = max(worst_trace, abs(sums[-1] - b.size))
        if eig_sym(b.hodge_signless).top < max(degrees(b.graph)) - 1e-8:
            fiedler_bad.append(spec)
        e, v = b.graph.e, b.graph.n
        split = connection_sign_split(l_spec)
        in_blocks = all(-1.0 - 1e-8 <= lam < 0.0 or lam >= 1.0 - 1e-8 for lam in l_spec.eigenvalues)
        gap = block_gap(l_spec, e)
        if split != (e, v) or not in_blocks or gap < 1.0 - 1e-8:
            split_failures.append((spec, split, (e, v), round(gap, 4)))
        top_gap = l_spec.eigenvalues[-1] - l_spec.eigenvalues[-2] if b.size > 1 else math.inf
        if top_gap < 1.0 - 1e-8:
            top_gap_below_one.append((spec, round(top_gap, 4)))
    ok = worst_excess <= 1e-8 and worst_trace <= 1e-8 and not fiedler_bad and not split_failures
    _report(
        15,
        ok,
        f"partial sums excess {worst_excess:.2e}, trace gap {worst_trace:.2e}, "
        f"lambda_max(|H|) >= d ok: {not fiedler_bad}; sign split (e, v), spectrum in "
        f"[-1, 0) u [1, inf) and block gap >= 1 failures: {len(split_failures)} "
        f"{split_failures[:3]}; top gap < 1 (not a theorem) on {len(top_gap_below_one)} "
        f"graphs, e.g. {top_gap_below_one[:3]}",
    )


def test_criterion_16_barycentric_limit():
    b = bundle_for(from_spec("cycle:400"))
    dist = spectral_function_sup_distance(eig_sym(b.kirchhoff))
    func = limit_functional_equation_residual(100)
    ok = dist < 0.02 and func < 1e-12
    _report(16, ok, f"sup distance to 4sin^2(pi x/2): {dist:.4f}; functional equation residual {func:.1e}")
