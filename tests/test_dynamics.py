"""Exact reversible walks, quaternion branch solutions, Perron limits,
finite-field automata, and cocycle growth."""

import math
import random

import numpy as np
import pytest

from connlab.dynamics import (
    DynamicsError,
    Trajectory,
    PERRON_STEPS,
    growth_rates,
    jacobi_residual,
    orbit,
    perron_limits,
    quaternion_solution,
)
from connlab.exact import (
    FieldMatrix,
    IntMatrix,
    field_reduce,
    is_prime,
    linear_combination,
)
from connlab.graphs import Graph, connected_components, from_spec, induced_subgraph
from connlab.operators import bundle_for
from connlab.spectra import eig_sym
from conftest import SAMPLE_SPECS
from oracles import (
    EnvironmentSequence,
    cocycle,
    combined_solution,
    constant_environment,
    field_inverse,
    from_rows,
    inverse_unimodular,
    jacobi_ivp,
    jacobi_residual_two_apply,
    line_graph,
    quaternion_branch_rank,
)


def _unit(n, i=0):
    return tuple(1 if j == i else 0 for j in range(n))


@pytest.mark.parametrize("spec", ["cycle:4", "figure8", "path:5"])
def test_walk_round_trip_and_jacobi(spec):
    b = bundle_for(from_spec(spec))
    psi0 = tuple(range(1, b.size + 1))
    traj = orbit(b, psi0, -6, 6)
    assert traj[0] == psi0
    # forward and backward states are exact mutual inverses
    fwd = b.connection.apply(psi0)
    assert traj[1] == fwd
    assert b.green.apply(fwd) == psi0
    # full-time trajectories of L^n satisfy the Jacobi recurrence exactly
    assert jacobi_residual(traj, b.dirac_signless) == 0


def test_walk_rejects_bad_range():
    b = bundle_for(from_spec("cycle:4"))
    with pytest.raises(DynamicsError):
        orbit(b, _unit(8), 3, 1)


@pytest.mark.parametrize("p", [None, 2, 71, 2**61 - 1])
def test_orbit_returns_the_trajectory_of_its_range(p):
    # the walk over Z and the automaton mod p are one Trajectory: the orbit
    # array as its states, row k at time n_min + k
    b = bundle_for(from_spec("wheel:5"))
    start = tuple(range(-5, b.size - 5))
    for lo, hi in ((0, 0), (0, 4), (-3, 0), (-2, 5)):
        t = orbit(b, start, lo, hi, p)
        assert isinstance(t, Trajectory) and t.times == range(lo, hi + 1)
        assert t.states.shape == (hi - lo + 1, b.size)
        assert t[0] == tuple(x if p is None else x % p for x in start)


def test_automaton_rejects_bad_state_and_range():
    b = bundle_for(from_spec("cycle:4"))
    with pytest.raises(DynamicsError, match="state length does not match operator size"):
        orbit(b, _unit(7), -1, 1, 5)
    with pytest.raises(DynamicsError, match="state length does not match operator size"):
        orbit(b, _unit(9), 3, 1, 5)
    for lo, hi in ((1, 3), (-3, -1)):
        with pytest.raises(DynamicsError, match="time range must contain the initial time"):
            orbit(b, _unit(8), lo, hi, 5)
        with pytest.raises(DynamicsError, match="time range must contain the initial time"):
            orbit(b, _unit(8), lo, hi, 5)


@pytest.mark.parametrize("spec", ["complete:2", "cycle:4", "figure8"])
def test_quaternion_branches_solve_jacobi(spec):
    b = bundle_for(from_spec(spec))
    n = b.size
    q = (_unit(n, 0), _unit(n, 1 % n), _unit(n, 2 % n), _unit(n, 3 % n))
    branches = quaternion_solution(b, q, 5)
    for br in branches:
        assert jacobi_residual(br, b.dirac_signless) == 0
        # each branch owns its 11 rows, not a strided view of a longer orbit
        assert br.states.base is None and br.states.shape == (11, n)
    total = combined_solution(branches)
    assert jacobi_residual(total, b.dirac_signless) == 0
    # branch values at their base times reproduce the initial data
    assert branches[0][0] == q[0]
    assert branches[2][1] == b.connection.apply(q[2])


def test_quaternion_solution_takes_four_vectors_of_the_operator_size():
    b = bundle_for(from_spec("cycle:4"))
    quad = [_unit(8, i) for i in range(4)]
    for wrong in (quad[:3], quad + [_unit(8)]):
        with pytest.raises(DynamicsError, match=f"initial data has {len(wrong)} vectors, expected 4"):
            quaternion_solution(b, wrong, 2)
    with pytest.raises(DynamicsError, match="state length does not match operator size"):
        quaternion_solution(b, quad[:3] + [_unit(7)], 2)


def test_jacobi_ivp_matches_branch_construction():
    b = bundle_for(from_spec("cycle:4"))
    n = b.size
    q = (_unit(n, 0), _unit(n, 0), _unit(n, 1), _unit(n, 1))
    branches = quaternion_solution(b, q, 4)
    total = combined_solution(branches)
    initial = [total[t] for t in (0, 1, 2, 3)]
    recovered = jacobi_ivp(b.hodge_signless, initial, -7, 8)
    for t in range(-7, 9):
        assert recovered[t] == total[t]


def _bumped(t, n, i, delta):
    """t with entry i of psi(n) changed by delta."""
    rows = t.states.copy()
    rows[t.times.index(n), i] += delta
    return Trajectory(rows, t.times)


def _has_hydrogen_defect(t, habs):
    """Some |H| psi(n) - psi(n+1) + psi(n-1) is nonzero."""
    return any(
        habs.apply(t[n]) != tuple(a - c for a, c in zip(t[n + 1], t[n - 1]))
        for n in t.times
        if n - 1 in t.times and n + 1 in t.times
    )


def _assert_bump_matches_oracle(t, b, n, i, delta):
    """t with entry i of psi(n) changed by delta has the two-apply oracle's
    residual, with |H| materialized, and it is not 0."""
    bumped = _bumped(t, n, i, delta)
    residual = jacobi_residual(bumped, b.dirac_signless)
    assert residual == jacobi_residual_two_apply(bumped, b.hodge_signless) != 0
    return bumped


def _assert_residual_matches_oracle(t, b, rng):
    assert jacobi_residual(t, b.dirac_signless) == jacobi_residual_two_apply(t, b.hodge_signless) == 0
    # a bump at a time n with n-2, n+2 recorded breaks the equation at n
    inner = [n for n in t.times if n - 2 in t.times and n + 2 in t.times]
    delta = rng.choice((-1, 1)) * rng.randrange(1, 10**20)
    return _assert_bump_matches_oracle(t, b, rng.choice(inner), rng.randrange(t.states.shape[1]), delta)


def test_jacobi_residual_matches_two_apply_oracle_on_corpus_walks(corpus):
    rng = random.Random(12)
    for spec, b in corpus.items():
        habs = b.hodge_signless
        psi0 = tuple(rng.randrange(-(10**12), 10**12) for _ in range(b.size))
        traj = orbit(b, psi0, -4, 4)
        assert not _has_hydrogen_defect(traj, habs)
        assert _has_hydrogen_defect(_assert_residual_matches_oracle(traj, b, rng), habs), spec


def test_jacobi_residual_matches_two_apply_oracle_on_branches_and_ivp(sample):
    rng = random.Random(13)
    for spec, b in sample.items():
        n = b.size
        habs = b.hodge_signless
        quad = [tuple(rng.randrange(-9, 10) for _ in range(n)) for _ in range(4)]
        branches = quaternion_solution(b, quad, 3)
        ivp = jacobi_ivp(habs, quad, -5, 6)
        assert _has_hydrogen_defect(ivp, habs), spec
        for t in (*branches, combined_solution(branches), ivp):
            _assert_residual_matches_oracle(t, b, rng)


def _block_edge_times(t, dirac):
    """The times of the first and last state of every block of states that
    jacobi_residual steps through dirac, and the first and last times with a
    residual, n_min + 2 and n_max - 2."""
    count = len(t.times)
    block = max(1, t.states.size // dirac.nnz)
    starts = range(1, count - 1, block)
    assert len(starts) >= 3
    edges = {t.times[j] for a in starts for j in (a, min(a + block, count - 1) - 1)}
    return sorted(edges | {t.times[0] + 2, t.times[-1] - 2})


@pytest.mark.parametrize("kind", ["walk", "branch", "ivp"])
def test_jacobi_residual_matches_the_oracle_on_bumps_at_block_edges(kind):
    # wheel:8 over 401 times (201 for a branch): the residual steps |D| on
    # 3 blocks of states, and a bump of +-10^20 at either end of a block, or
    # at the first or last time with a residual, must give the oracle's
    # integer; an ivp solution has nonzero defects before any bump
    b = bundle_for(from_spec("wheel:8"))
    rng = random.Random(14)
    quad = [tuple(rng.randrange(-9, 10) for _ in range(b.size)) for _ in range(4)]
    if kind == "walk":
        t = orbit(b, quad[0], -200, 200)
    elif kind == "branch":
        t = quaternion_solution(b, quad, 100)[3]
    else:
        t = jacobi_ivp(b.hodge_signless, quad, -198, 202)
        assert _has_hydrogen_defect(t, b.hodge_signless)
    assert jacobi_residual(t, b.dirac_signless) == jacobi_residual_two_apply(t, b.hodge_signless)
    for n in _block_edge_times(t, b.dirac_signless):
        for delta in (10**20, -(10**20)):
            _assert_bump_matches_oracle(t, b, n, rng.randrange(b.size), delta)


@pytest.mark.parametrize(
    "spec, expected_rank, dim",
    [("complete:2", 10, 12), ("cycle:4", 28, 32), ("figure8", 54, 60)],
)
def test_quaternion_branch_rank(spec, expected_rank, dim):
    b = bundle_for(from_spec(spec))
    # deficiency is twice the multiplicity of eigenvalues +-1 of L
    assert quaternion_branch_rank(b) == expected_rank
    assert 4 * b.size == dim


def test_perron_limits_on_cycle4():
    b = bundle_for(from_spec("cycle:4"))
    rep = perron_limits(b)
    assert rep.forward_residuals[-1] < 1e-6
    assert rep.backward_residuals[-1] < 1e-3
    assert all(x > 0 for x in rep.v)
    # the eigenvector nearest zero oscillates in sign
    assert any(x > 0 for x in rep.w) and any(x < 0 for x in rep.w)
    assert math.isclose(rep.rho, 2 + math.sqrt(5), rel_tol=1e-10)
    # residual sequences decrease over the tail
    assert rep.forward_residuals[-1] <= rep.forward_residuals[0]


def test_perron_limits_requires_irreducible():
    # two disjoint copies of complete:2, built by hand
    disconnected = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DynamicsError, match="reducible"):
        perron_limits(bundle_for(disconnected))
    components = connected_components(disconnected)
    assert len(components) == 2
    for comp in components:
        assert perron_limits(bundle_for(induced_subgraph(disconnected, comp))).forward_residuals[-1] < 1e-6


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_automaton_round_trip_and_orbit(p):
    b = bundle_for(from_spec("cycle:4"))
    states = orbit(b, _unit(8), -4, 4, p)
    assert states.times == range(-4, 5)
    # forward state reduced from the exact integer walk
    exact = orbit(b, _unit(8), -4, 4)
    for n in states.times:
        assert states[n] == tuple(x % p for x in exact[n])


def test_automaton_reduces_its_start_mod_p():
    # an unreduced start, with negative entries and entries >= p, gives the
    # rows of its reduction; at p = 2^61 - 1 the steps of g mod p run on
    # Python ints, and the rows are the exact walk reduced mod p
    b = bundle_for(from_spec("wheel:8"))
    rng = random.Random(15)
    for p in (7, 2**61 - 1):
        start = [rng.randrange(-3 * p, 3 * p) for _ in range(b.size)]
        start[:2] = [-1, p]
        reduced = [x % p for x in start]
        states = orbit(b, start, -6, 6, p)
        assert np.array_equal(states.states, orbit(b, reduced, -6, 6, p).states)
        assert states[0] == tuple(reduced) and states[1] != tuple(reduced)
    assert field_reduce(b.green, p).step_dtype is object
    exact = orbit(b, start, -6, 6)
    assert states.states.tolist() == [[x % p for x in exact[n]] for n in exact.times]


def test_cocycle_constant_environment_matches_log_rho():
    b = bundle_for(from_spec("cycle:4"))
    env = constant_environment(b.connection, 600)
    rep = cocycle(env, [1.0] * 8, 600)
    expected = math.log(2 + math.sqrt(5))
    assert abs(rep.lyapunov - expected) < 1e-2


def test_cocycle_alternating_environment_runs():
    a = bundle_for(from_spec("cycle:4")).connection
    bm = bundle_for(from_spec("star:3")).connection
    with pytest.raises(DynamicsError):
        # registry operators must share a dimension
        EnvironmentSequence((0, 1), (a, bm))


def test_growth_rates_link():
    rep = growth_rates(bundle_for(from_spec("figure8")))
    assert rep.functional_link_residual < 1e-9
    assert rep.rho_hodge_signless > rep.rho_line_graph_adjacency
    assert math.isclose(rep.log_rho_connection, math.log(rep.rho_connection), rel_tol=1e-12)


def _line_graph_adjacency(g):
    lg = line_graph(g)
    adj = [[0] * lg.n for _ in range(lg.n)]
    for a, b in lg.edges:
        adj[a][b] = adj[b][a] = 1
    return from_rows(adj)


def test_signless_edge_hodge_is_twice_identity_plus_line_graph_adjacency(corpus):
    # |H1| = |d| |d|^T: 2 on the diagonal, and 1 where two edges share an end
    for spec, b in corpus.items():
        if b.e:
            two = linear_combination((IntMatrix.identity(b.e), 2))
            assert b.hodge1_signless == two + _line_graph_adjacency(b.graph), spec


@pytest.mark.parametrize("spec", ["figure8", "wheel:8", "petersen:5,2", "star:5", "path:2", "gnm:12,20:seed=3"])
def test_growth_rates_line_graph_radius_matches_its_adjacency(spec):
    g = from_spec(spec)
    rep = growth_rates(bundle_for(g))
    assert abs(rep.rho_line_graph_adjacency - eig_sym(_line_graph_adjacency(g)).top) < 1e-12


# ---------------------------------------------------------------------------
# sparse stepping against the dense routes, over the whole corpus


def _dense_apply(m, vec):
    """m @ vec with one multiply-add per entry, reduced mod p over F_p."""
    out = tuple(sum(a * x for a, x in zip(row, vec)) for row in m.rows)
    return tuple(x % m.p for x in out) if isinstance(m, FieldMatrix) else out


def _apply_cases(b):
    """L, g, |H| and the signed and signless incidence d, |d| and d^T."""
    d = b.incidence
    yield from (("L", b.connection), ("g", b.green), ("Habs", b.hodge_signless))
    yield from (("d", d), ("|d|", b.incidence_signless), ("d^T", d.transpose()))


def test_sparse_step_matches_dense_apply(corpus):
    rng = random.Random(20)
    # |H| of a graph with isolated vertices has zero rows, and d^T has them
    # last; an edgeless graph has a 0-row incidence and an all-zero |H|
    extra = {"isolated": Graph(6, ((1, 2), (2, 3))), "edgeless": Graph(3, ())}
    bundles = {**corpus, **{name: bundle_for(g) for name, g in extra.items()}}
    p = 1_000_003
    for spec, b in bundles.items():
        for name, m in _apply_cases(b):
            # entries far above 2^63, so no int64 route can pass
            vec = tuple(rng.randrange(-(2**100), 2**100) for _ in range(m.ncols))
            assert m.apply(vec) == _dense_apply(m, vec), (spec, name)
            mp = field_reduce(m, p)
            reduced = tuple(x % p for x in vec)
            assert mp.apply(reduced) == _dense_apply(mp, reduced), (spec, name)
            # a block of vectors, one per column, gives the block of products
            other = tuple(rng.randrange(p) for _ in range(m.ncols))
            block = np.array([vec, other], dtype=object).T
            assert m.step(block).T.tolist() == [list(_dense_apply(m, v)) for v in (vec, other)]
            stepped = mp.step(np.array([reduced, other], dtype=mp.step_dtype).T)
            assert stepped.T.tolist() == [list(_dense_apply(mp, v)) for v in (reduced, other)]
    isolated = bundles["isolated"]
    assert [i for i, row in enumerate(isolated.hodge_signless.rows) if not any(row)] == [0, 4, 5]
    assert not any(isolated.incidence.transpose().rows[-1])
    assert bundles["edgeless"].incidence.shape == (0, 3)
    for m in (from_rows([], ncols=0), from_rows([], ncols=2), from_rows([[], []], ncols=0)):
        assert m.apply((2**64,) * m.ncols) == _dense_apply(m, (2**64,) * m.ncols) == (0,) * m.nrows
        assert m.step(np.ones((m.ncols, 3), dtype=object)).shape == (m.nrows, 3)


def _dense_orbit(Lp, gp, start, n_min, n_max):
    states = {0: start}
    for n in range(1, n_max + 1):
        states[n] = _dense_apply(Lp, states[n - 1])
    for n in range(-1, n_min - 1, -1):
        states[n] = _dense_apply(gp, states[n + 1])
    return [states[n] for n in range(n_min, n_max + 1)]


ORBIT_RANGES = [(-3, 3), (-5, 7), (-7, 2), (0, 6), (-4, 0), (0, 0)]


@pytest.mark.parametrize("p", [2, 71, 2147483647, 4294967311])
def test_automaton_near_and_above_word_size_matches_dense_route(corpus, p):
    # entries of g mod p are as large as p - 1, but steps multiply by the
    # signed residues, as small as g's integer entries, so at the two large
    # primes g's mat-vecs stay in int64 on every corpus graph, as L's do and
    # as both do at 2 and 71
    rng = random.Random(p)
    dtypes = set()
    for spec, b in corpus.items():
        Lp = field_reduce(b.connection, p)
        gp = field_reduce(b.green, p)
        assert Lp.step_dtype is np.int64
        dtypes.add(gp.step_dtype)
        start = tuple(rng.randrange(p) for _ in range(b.size))
        dense = _dense_orbit(Lp, gp, start, -7, 7)
        for lo, hi in ORBIT_RANGES:
            rows = orbit(b, start, lo, hi, p).states
            assert rows.dtype == (gp if lo else Lp).step_dtype, (spec, lo, hi)
            assert rows.tolist() == [list(v) for v in dense[lo + 7 : hi + 8]], (spec, lo, hi)
        states = orbit(b, start, -3, 3, p)
        assert states.times == range(-3, 4)
        assert [tuple(v) for v in states.states.tolist()] == dense[4:11], spec
    assert dtypes == {np.int64}


@pytest.mark.parametrize("p", [None, 2, 71, 2**31 - 1, 4294967311, 2**61 - 1])
def test_orbit_matches_the_dense_route_per_time(corpus, p):
    # orbit steps psi(k) and psi(-k) as one state of diag(L, g) while both
    # directions run on one dtype; its rows and dtype are those of one dense
    # step per time, and the dtype is object exactly when a stepped
    # matrix's mat-vecs run on Python ints (over Z, and on most graphs at
    # 2^61 - 1, where signed residues times p - 1 pass 2^63)
    rng = random.Random(p)
    dtypes = set()
    for spec, b in corpus.items():
        if p is None:
            Lp, gp = b.connection, b.green
            start = tuple(rng.randrange(-9, 10) for _ in range(b.size))
        else:
            Lp, gp = field_reduce(b.connection, p), field_reduce(b.green, p)
            start = tuple(rng.randrange(p) for _ in range(b.size))
        dtypes.add(gp.step_dtype)
        dense = _dense_orbit(Lp, gp, start, -7, 7)
        for lo, hi in ORBIT_RANGES:
            rows = orbit(b, start, lo, hi, p).states
            stepped = ([Lp] if hi or not lo else []) + ([gp] if lo else [])
            dtype = object if any(m.step_dtype is object for m in stepped) else np.int64
            assert rows.dtype == dtype, (spec, lo, hi)
            assert rows.tolist() == [list(v) for v in dense[lo + 7 : hi + 8]], (spec, lo, hi)
    assert (object in dtypes) == (p in (None, 2**61 - 1))


def _counted_orbit(monkeypatch, b, start, n_min, n_max, p):
    """The orbit and the shape of each state or block that FieldMatrix.step
    took while orbit stepped it."""
    real = FieldMatrix.step
    shapes = []

    def counted(self, vec):
        shapes.append(np.shape(vec))
        return real(self, vec)

    monkeypatch.setattr(FieldMatrix, "step", counted)
    rows = orbit(b, start, n_min, n_max, p).states
    monkeypatch.undo()
    return rows, shapes


@pytest.mark.parametrize("n_min, n_max", [(-2, 5), (-6, 1), (-4, 4), (0, 3), (-3, 0), (0, 0)])
def test_automaton_orbit_steps_once_per_time(monkeypatch, n_min, n_max):
    # while both directions run, psi(k) and psi(-k) step as one 50-entry
    # state of diag(L, g): min(n_max, -n_min) steps, then the longer side
    # one 25-entry state per time, and none for the start alone
    b = bundle_for(from_spec("petersen:5,2"))
    start = tuple(k % 11 for k in range(b.size))
    rows, shapes = _counted_orbit(monkeypatch, b, start, n_min, n_max, 11)
    assert shapes == [(50,)] * min(n_max, -n_min) + [(25,)] * abs(n_max + n_min)
    Lp, gp = field_reduce(b.connection, 11), field_reduce(b.green, 11)
    assert rows.tolist() == [list(v) for v in _dense_orbit(Lp, gp, start, n_min, n_max)]


def test_orbit_pairs_the_directions_when_the_dtypes_differ(monkeypatch):
    # at a prime where L mod p steps in int64 and g mod p on Python ints,
    # the paired step of diag(L, g) runs on Python ints: four 50-entry
    # states for times +-1..+-4, then L alone for times 5 and 6
    b = bundle_for(from_spec("wheel:8"))
    L_sum, g_sum = (max(m.abs().row_sums()) for m in (b.connection, b.green))
    assert (L_sum, g_sum) == (12, 23)
    p = next(q for q in range(2**63 // L_sum, 0, -1) if is_prime(q))
    Lp, gp = field_reduce(b.connection, p), field_reduce(b.green, p)
    assert (Lp.step_dtype, gp.step_dtype) == (np.int64, object)
    start = tuple(range(b.size))
    rows, shapes = _counted_orbit(monkeypatch, b, start, -4, 6, p)
    assert shapes == [(50,)] * 4 + [(25,)] * 2 and rows.dtype == object
    assert rows.tolist() == [list(v) for v in _dense_orbit(Lp, gp, start, -4, 6)]


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_supplied_inverses_match_elimination(spec):
    # backward states stepped by the bundle's green, against the elimination
    # inverses over the integers and over F_p that the library no longer runs
    b = bundle_for(from_spec(spec))
    psi0 = tuple(range(-3, b.size - 3))
    traj = orbit(b, psi0, -5, 5)
    linv = inverse_unimodular(b.connection)
    state = psi0
    for n in range(-1, -6, -1):
        state = linv.apply(state)
        assert traj[n] == state, (spec, n)
    p = 13
    Lp = field_reduce(b.connection, p)
    gp = field_inverse(Lp)
    assert gp == field_reduce(b.green, p)
    start = tuple(x % p for x in psi0)
    states = orbit(b, start, -7, 5, p)
    assert states.times == range(-7, 6)
    assert [tuple(v) for v in states.states.tolist()] == _dense_orbit(Lp, gp, start, -7, 5)
    assert states[0] == start


def _dense_perron_residuals(b, rho, v, w, max_n):
    """Oracle for perron_limits: dense big-integer powers of L^2 and of the
    elimination inverse squared, normalized by rho^{2n}."""
    L = b.connection
    linv = inverse_unimodular(L)
    v_proj, w_proj = np.outer(v, v), np.outer(w, w)
    lsq, linv_sq = L @ L, linv @ linv
    fwd = bwd = IntMatrix.identity(L.nrows)
    forward, backward = [], []
    scale = 1.0
    for _ in range(max_n):
        fwd, bwd = fwd @ lsq, bwd @ linv_sq
        scale *= rho * rho
        forward.append(float(np.linalg.norm(fwd.to_float() / scale - v_proj)))
        backward.append(float(np.linalg.norm(bwd.to_float() / scale - w_proj)))
    return tuple(forward), tuple(backward)


@pytest.mark.parametrize("spec", ["cycle:4", "figure8", "wheel:8", "grid:3,3", "petersen:5,2", "star:5"])
def test_perron_limits_match_dense_powers_bit_for_bit(spec):
    b = bundle_for(from_spec(spec))
    rep = perron_limits(b)
    oracle = _dense_perron_residuals(b, rep.rho, np.array(rep.v), np.array(rep.w), PERRON_STEPS)
    assert (rep.forward_residuals, rep.backward_residuals) == oracle
