"""Floating spectra validated against exact polynomial root isolation,
bound soundness, and the barycentric limit profile."""

import math
from itertools import accumulate

import numpy as np
import pytest

import connlab.graphs as graphs
import connlab.spectra as spectra
from connlab.exact import IntMatrix
from connlab.graphs import Graph, from_spec
from connlab.operators import bundle_for
from connlab.spectra import (
    EIG_TOL,
    SoundnessError,
    SpectraError,
    block_gap,
    bound_bhs,
    bound_dual_vertex,
    bound_kwalk,
    bound_trivial_2d,
    bounds_report,
    connection_sign_split,
    eig_sym,
)
from conftest import SAMPLE_SPECS
from oracles import (
    IntPolynomial,
    charpoly,
    exact_root_multiset,
    from_rows,
    kwalk_through_connection,
    limit_functional_equation_residual,
    matpow,
    reciprocal_sign,
    spectral_function_sup_distance,
    validate_spectrum_against_charpoly,
)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(SpectraError):
        eig_sym(from_rows([[0, 2], [1, 0]]))


def test_eig_sym_known_values():
    spec = eig_sym(from_rows([[3, 0, 0], [0, -1, 0], [0, 0, 2]]))
    assert spec.eigenvalues == (-1.0, 2.0, 3.0)
    assert spec.top == 3.0
    assert spec.eigenvalues[0] == -1.0
    assert spec.eigenvalues[-1] - spec.eigenvalues[-2] == 1.0
    assert tuple(accumulate(spec.eigenvalues)) == (-1.0, 1.0, 4.0)


@pytest.mark.parametrize("spec", ["cycle:4", "path:4", "figure8", "complete:4", "gnm:12,15:seed=0"])
def test_numeric_spectrum_matches_exact_roots(spec, sample):
    b = sample.get(spec) or bundle_for(from_spec(spec))
    worst = validate_spectrum_against_charpoly(b.connection, tol=1e-6)
    assert worst < 1e-6


def test_exact_root_multiset_with_multiplicity():
    # (x-1)^2 (x-3) expanded: -3 + 7x - 5x^2 + x^3
    roots = exact_root_multiset(IntPolynomial((-3, 7, -5, 1)))
    assert len(roots) == 3
    assert abs(roots[0] - 1) < 1e-8 and abs(roots[1] - 1) < 1e-8
    assert abs(roots[2] - 3) < 1e-8


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_sign_split_counts_cells(spec, sample):
    b = sample[spec]
    l_spec = eig_sym(b.connection)
    neg, pos = connection_sign_split(l_spec)
    assert (neg, pos) == (b.e, b.v)
    # the split gap clears 1 because sigma(L) lives in [-1, 0) union [1, inf)
    assert block_gap(l_spec, neg) > 1.0 - 1e-9
    assert all(-1.0 - 1e-9 < x < 0 for x in l_spec.eigenvalues[:neg])
    assert all(x >= 1.0 - 1e-9 for x in l_spec.eigenvalues[neg:])


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_bounds_sound_on_sample(spec, sample):
    b = sample[spec]
    rep = bounds_report(b)
    # construction already asserts soundness; spot-check two bounds anyway
    assert rep.bound_dual_vertex >= rep.rho_Habs - 1e-9
    assert rep.bound_bhs >= rep.rho_Habs - 1e-9


def test_lsc_flagged_on_regular_graphs():
    rep = bounds_report(bundle_for(from_spec("cycle:8")))
    assert "regular" in rep.flags
    assert "lsc-inapplicable" in rep.flags
    rep2 = bounds_report(bundle_for(from_spec("path:5")))
    assert "lsc-inapplicable" not in rep2.flags


def test_soundness_error_raised_on_fabricated_report():
    rep = bounds_report(bundle_for(from_spec("path:5")))
    import dataclasses

    from connlab.spectra import _check_soundness

    broken = dataclasses.replace(rep, bound_dual_vertex=rep.rho_Habs - 1.0)
    with pytest.raises(SoundnessError):
        _check_soundness(broken)


def test_kwalk_tightens_toward_spectral_link():
    g = from_spec("cycle:6")
    b = bundle_for(g)
    target = eig_sym(b.hodge_signless).top
    assert abs(bound_kwalk(b, (24,))[24] - target) < 0.1
    assert bound_kwalk(b, (3,))[3] >= target - 1e-9


def test_kwalk_matches_dense_matpow_on_corpus(corpus):
    # the k mat-vecs against the max row sum of the dense power (L - I)^k
    for spec, b in corpus.items():
        adj = b.connection - IntMatrix.identity(b.size)
        for k in (1, 2, 3):
            r = 1.0 + math.exp(math.log(max(matpow(adj, k).row_sums())) / k)
            assert bound_kwalk(b, (k,))[k] == r - 1.0 / r, (spec, k)


def test_kwalk_matches_the_connection_route_on_corpus(corpus):
    # the block-form step from the edge ends against mat-vecs with the
    # assembled L, bit for bit, at walk lengths where most corpus graphs
    # pass the int64 bound and run on Python ints
    for spec, b in corpus.items():
        if b.graph.edges:
            for k in (24, 40):
                assert bound_kwalk(b, (k,)) == kwalk_through_connection(b, (k,)), (spec, k)


def test_kwalk_is_exact_on_both_sides_of_the_int64_bound():
    # complete:8 has r = 7 + 7 = 14, the largest row sum of A(G'): 4 r^16
    # is below 2^63 and 4 r^17 is not, so K = 16 runs in int64 with counts
    # near 2^61 and K = 17 on Python ints
    b = bundle_for(from_spec("complete:8"))
    assert 4 * 14**16 < 2**63 <= 4 * 14**17
    for ks in ((16,), (17,), (1, 2, 3, 16)):
        assert bound_kwalk(b, ks) == kwalk_through_connection(b, ks), ks


def test_bhs_edge_count_matches_the_connection_on_corpus(corpus):
    # e' read off the degrees, 2e + sum C(deg v, 2), against the count of
    # off-diagonal entries of L halved: u - 1/u is increasing in e', so
    # equal bounds mean equal counts
    for spec, b in corpus.items():
        if b.graph.edges:
            eprime = (b.connection.entry_sum() - b.size) // 2
            u = 1.0 + (math.sqrt(1.0 + 8.0 * eprime) - 1.0) / 2.0
            assert bound_bhs(b) == u - 1.0 / u, spec


def test_bounds_row_matches_hodge_top_and_single_kwalk_on_corpus(corpus):
    # rho(|H|) = rho(B + A) by supersymmetry, so the row needs no eigensolve
    # of |H|; and the walk bounds of one shared pass equal those of k alone,
    # bit for bit
    for spec, b in corpus.items():
        if not b.graph.edges:
            continue
        rep = bounds_report(b)
        assert abs(eig_sym(b.hodge_signless).top - rep.rho_Habs) <= EIG_TOL, spec
        for k in (1, 2, 3):
            assert rep.bound_kwalk[k] == bound_kwalk(b, (k,))[k], (spec, k)


def test_bounds_row_finds_components_and_regularity_once(monkeypatch):
    # bounds_report runs the union-find and the regularity test once and
    # hands both to the lsc/shi bound; diameter tells a disconnected graph
    # from its own BFS stalling, with no union-find of its own
    calls = []

    def counting(name, real):
        def wrapped(g):
            calls.append(name)
            return real(g)

        return wrapped

    for name in ("connected_components", "is_regular"):
        wrapped = counting(name, getattr(graphs, name))
        monkeypatch.setattr(graphs, name, wrapped)
        monkeypatch.setattr(spectra, name, wrapped)
    rep = bounds_report(bundle_for(from_spec("figure8")))
    assert "disconnected" not in rep.flags and "lsc-inapplicable" not in rep.flags
    assert sorted(calls) == ["connected_components", "is_regular"]


def test_bounds_row_takes_the_degrees_once(monkeypatch):
    # one bincount of the edge ends, the bundle's degrees, serves the
    # Kirchhoff diagonal, the degree bounds, the walk bound's largest row sum
    # and every regularity test, per component too
    counted, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: counted.append(1) or bincount(*a, **k))
    k3_p3 = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (4, 5)), name="K3+P3")
    cases = (
        (from_spec("figure8"), ()),
        (k3_p3, ("disconnected", "lsc-per-component", "lsc-inapplicable")),
    )
    for g, flags in cases:
        counted.clear()
        rep = bounds_report(bundle_for(g))
        assert rep.flags == flags and len(counted) == 1, g.name


def test_kwalk_errors():
    c4, edgeless = bundle_for(from_spec("cycle:4")), bundle_for(Graph(3, name="E3"))
    with pytest.raises(SpectraError, match="^walk length k must be >= 1$"):
        bound_kwalk(c4, (0,))
    with pytest.raises(SpectraError, match="^walk length k must be >= 1$"):
        bound_kwalk(c4, (1, 0))
    # the walk length is checked before the graph
    with pytest.raises(SpectraError, match="^walk length k must be >= 1$"):
        bound_kwalk(edgeless, (0,))
    no_edges = "^graph 'E3' has no edges; degree bounds are inapplicable$"
    with pytest.raises(SpectraError, match=no_edges):
        bound_kwalk(edgeless, (1,))
    with pytest.raises(SpectraError, match=no_edges):
        bounds_report(edgeless)


def test_dual_vertex_beats_2d_on_sparse():
    b = bundle_for(from_spec("gnp:20,0.1:seed=1"))
    assert bound_dual_vertex(b) < bound_trivial_2d(b)


def test_barycentric_limit_profile_converges():
    dists = []
    for n in (100, 200, 400):
        b = bundle_for(from_spec(f"cycle:{n}"))
        dists.append(spectral_function_sup_distance(eig_sym(b.kirchhoff)))
    assert dists[2] < dists[1] < dists[0]
    assert dists[2] < 0.02


def test_limit_profile_functional_equation():
    assert limit_functional_equation_residual(100) < 1e-12


def test_spectral_radius_closed_form_on_cycle4():
    # rho(|H|) = 4 for C4, so rho(L) solves rho - 1/rho = 4: rho = 2 + sqrt(5)
    b = bundle_for(from_spec("cycle:4"))
    got = eig_sym(b.connection).top
    assert math.isclose(got, 2 + math.sqrt(5), rel_tol=1e-10)


def test_charpoly_reciprocity_of_squared_connection():
    for spec in ("complete:2", "cycle:4", "figure8"):
        b = bundle_for(from_spec(spec))
        p = charpoly(b.connection @ b.connection)
        assert reciprocal_sign(p) == (1 if b.size % 2 == 0 else -1)
