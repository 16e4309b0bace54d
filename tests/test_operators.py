"""Operator construction against frozen fixtures and structural identities.

The 15x15 matrices below are a frozen reference for the figure-8 graph (two
squares sharing a vertex): connection matrix, its integer inverse, and the
Dirac operator.  They were fixed once from an independent derivation and
guard against silent changes in cell ordering or sign conventions.
"""

import random
from collections import Counter

import numpy as np
import pytest

import connlab.operators as operators
from connlab.complexes import build_complex
from connlab.exact import IntMatrix, SingularMatrixError, det, linear_combination
from connlab.graphs import Graph, betti_numbers, from_spec, parse_graph_text
from connlab.operators import (
    OperatorBundle,
    bundle_for,
    dirac_from_incidence,
    hydrogen_residual,
    green_star,
    forest_rank,
    spanning_forest,
    supersymmetry_report,
    trace_report,
)
from conftest import SAMPLE_SPECS
from oracles import (
    broken_colouring,
    certified_rank,
    charpoly,
    component_vectors,
    dense_abs,
    dense_connection,
    dense_dirac,
    dense_green_star,
    dense_hodge,
    dense_hydrogen_residual,
    dense_incidence_signed,
    dense_kirchhoff,
    dense_matmul,
    edited,
    from_rows,
    graeffe,
    inverse_unimodular,
    negated_edge_row,
    pairs,
    rank,
    reciprocal_sign,
    resigned_odd_rows,
    shared_odd_row,
    stray_forest_entry,
    stray_vertex_entry,
    supersymmetry_charpoly,
    zeroed_forest_pivot,
)

FIG8_L = from_rows(
    [
        [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1],
        [1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0],
        [0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1],
        [0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1],
    ]
)

FIG8_G = from_rows(
    [
        [-1, -1, 0, -1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [-1, -3, -1, 0, -1, 0, -1, 1, 0, 1, 1, 1, 0, 0, 0],
        [0, -1, -1, -1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0],
        [-1, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, -1, 0, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, -1, -1, -1, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, -1, 0, 0, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0, 1],
        [1, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, -1],
    ]
)

FIG8_D = from_rows(
    [
        [0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, -1, -1, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1],
        [-1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
)


@pytest.fixture(scope="module")
def fig8():
    return bundle_for(from_spec("figure8"))


def test_figure8_frozen_connection(fig8):
    assert fig8.connection.rows == FIG8_L.rows


def test_figure8_frozen_green(fig8):
    assert fig8.green.rows == FIG8_G.rows
    assert dense_matmul(FIG8_L, FIG8_G).rows == IntMatrix.identity(15).rows


def test_figure8_frozen_dirac(fig8):
    assert fig8.dirac.rows == FIG8_D.rows
    assert fig8.hodge.rows == dense_matmul(FIG8_D, FIG8_D).rows


def test_figure8_identities(fig8):
    assert hydrogen_residual(fig8).is_zero()
    assert fig8.connection_det in (1, -1)
    assert fig8.green.entry_sum() == 7 - 8
    # determinant sign follows the edge count: (-1)^8 = 1
    assert fig8.connection_det == 1


def test_k2_small_matrices():
    b = bundle_for(from_spec("complete:2"))
    assert b.connection.rows == from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 1]]).rows
    assert b.green.rows == from_rows([[0, -1, 1], [-1, 0, 1], [1, 1, -1]]).rows
    assert b.hodge_signless.rows == from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 2]]).rows


def test_connection_block_structure():
    b = bundle_for(from_spec("cycle:4"))
    L = b.connection
    # vertices never intersect each other, so the vertex block is the identity
    assert L.block(0, 4, 0, 4).rows == IntMatrix.identity(4).rows
    # the vertex-edge block records incidence without signs
    assert L.block(0, 4, 4, 8).rows == b.incidence_signless.transpose().rows
    # diagonal is all ones
    assert all(L.rows[i][i] == 1 for i in range(8))


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_identities_on_sample(spec, sample):
    b = sample[spec]
    assert hydrogen_residual(b).max_abs() == 0
    assert b.connection_det in (1, -1)
    assert b.green.entry_sum() == b.v - b.e
    assert trace_report(b).ok
    assert supersymmetry_report(b).ok


@pytest.mark.parametrize("spec", ["cycle:5", "path:4", "figure8"])
def test_kirchhoff_equals_hodge_vertex_block(spec, sample):
    b = sample.get(spec) or bundle_for(from_spec(spec))
    # two routes: degree-minus-adjacency versus the incidence square
    assert b.kirchhoff.rows == b.hodge0.rows
    assert b.kirchhoff_signless.rows == b.hodge0_signless.rows


def test_orientation_invariance():
    # the bundle orients each edge from its smaller endpoint; the Dirac
    # builder on an incidence with every other edge flipped gives the same
    # vertex Hodge block and signless Hodge operator
    g = from_spec("figure8")
    c = build_complex(g)
    default = OperatorBundle(g)
    d0 = dense_incidence_signed(c, [-1 if i % 2 else 1 for i in range(g.e)])
    dirac, signless = dirac_from_incidence(d0), dirac_from_incidence(dense_abs(d0))
    hodge = dirac @ dirac
    assert hodge.block(0, c.v, 0, c.v).rows == default.hodge0.rows
    assert (signless @ signless).rows == default.hodge_signless.rows
    # the signed edge block changes, but only by a diagonal conjugation,
    # so characteristic polynomials agree
    hodge1 = hodge.block(c.v, c.size, c.v, c.size)
    assert hodge1 != default.hodge1
    assert charpoly(hodge1).coeffs == charpoly(default.hodge1).coeffs


def test_signless_hodge_is_entrywise_abs():
    b = bundle_for(from_spec("grid:3,3"))
    H = b.hodge.rows
    A = b.hodge_signless.rows
    for i in range(b.size):
        for j in range(b.size):
            assert A[i][j] == abs(H[i][j])


def test_hodge_matches_dirac_square_on_corpus(corpus):
    # H and |H| are sparse Dirac squares; the dense D @ D is the oracle,
    # under the default and a seeded random orientation
    rng = random.Random(1803)
    for spec, b in corpus.items():
        assert b.hodge == dense_matmul(b.dirac, b.dirac), spec
        assert b.hodge_signless == dense_matmul(b.dirac_signless, b.dirac_signless), spec
        signs = [rng.choice((-1, 1)) for _ in range(b.e)]
        flipped = dirac_from_incidence(dense_incidence_signed(b.complex, signs))
        assert flipped @ flipped == dense_matmul(flipped, flipped), spec


def test_connection_matrix_matches_pairwise_intersection(corpus):
    # L is set from the vertex stars; the oracle tests every pair of cells
    for spec, b in corpus.items():
        cells = [set(x) for x in b.complex.simplices]
        want = [[1 if x & y else 0 for y in cells] for x in cells]
        assert b.connection.rows == want, spec


def test_connection_det_matches_bareiss_on_corpus(corpus):
    # det L from the Schur complement of the vertex block; Bareiss is the oracle
    for spec, b in corpus.items():
        assert b.connection_det == det(b.connection) == (-1) ** b.e, spec


def test_trace_report_matches_dense_products_on_corpus(corpus):
    # the squared traces are summed from the entries; the dense product is
    # the oracle
    for spec, b in corpus.items():
        tr = trace_report(b)
        L, habs = b.connection, b.hodge_signless
        h0, h1 = b.hodge0_signless, b.hodge1_signless
        assert tr.connection_sq_trace == dense_matmul(L, L).trace(), spec
        assert tr.hodge_signless_sq_trace == dense_matmul(habs, habs).trace(), spec
        assert tr.hodge0_signless_sq_trace == dense_matmul(h0, h0).trace(), spec
        assert tr.hodge1_signless_sq_trace == dense_matmul(h1, h1).trace(), spec
        assert tr.ok, spec


def _with_connection(b: OperatorBundle, L: IntMatrix) -> OperatorBundle:
    """A fresh bundle of b's graph whose connection is L, set before its
    first read: the Schur certificate then runs on L."""
    out = OperatorBundle(b.graph)
    out.__dict__["connection"] = L
    return out


def test_schur_inverse_matches_star_formula_and_elimination_on_corpus(corpus):
    # verify's green-star oracle: the block inverse read from L alone, the
    # star formula, and Gauss-Jordan elimination (tests/oracles.py) agree
    for spec, b in corpus.items():
        assert b.schur_inverse() == green_star(b.complex) == inverse_unimodular(b.connection), spec


@pytest.mark.parametrize(
    "edge_diagonal, error", [(0, ValueError), (2, SingularMatrixError)], ids=["det2", "det0"]
)
def test_schur_inverse_rejects_a_connection_without_integer_inverse(edge_diagonal, error):
    # one edge-edge diagonal entry changed: the Schur complement entry -1
    # becomes -2 (det L = 2) or 0 (det L = 0), and elimination agrees
    b = bundle_for(from_spec("cycle:4"))
    L = edited(b.connection, {(b.v, b.v): edge_diagonal})
    with pytest.raises(error):
        _with_connection(b, L).schur_inverse()
    with pytest.raises(error):
        inverse_unimodular(L)


def test_schur_reciprocity_sign_matches_the_charpoly_oracle(corpus, squared_charpolys):
    # the O(nnz) certificate against the route it replaced in verify,
    # reciprocal_sign(graeffe(charpoly(L))), over the whole corpus
    for spec, b in corpus.items():
        want = -1 if b.size % 2 else 1
        assert b.reciprocity_sign == want, spec
        assert reciprocal_sign(squared_charpolys[spec]) == want, spec


def _disjoint_edges(b) -> tuple[int, int]:
    """The cell indices of the first two edges that share no vertex."""
    edges = b.graph.edges
    return next(
        (b.v + k, b.v + l)
        for k in range(len(edges))
        for l in range(k + 1, len(edges))
        if not set(edges[k]) & set(edges[l])
    )


@pytest.mark.parametrize("spec", ["cycle:5", "figure8", "wheel:6"])
def test_schur_reciprocity_sign_rejects_s_equal_to_plus_identity(spec):
    # every edge diagonal set to 3 gives S = +I_e: spec(L^2) is still closed
    # under inversion, so the charpoly oracle passes it, but the certificate
    # asks for S = -I_e and is sufficient, not necessary
    b = bundle_for(from_spec(spec))
    L = edited(b.connection, {(k, k): 3 for k in range(b.v, b.size)})
    assert _with_connection(b, L).schur[2] == [1] * b.e
    assert reciprocal_sign(graeffe(charpoly(L))) == (-1 if b.size % 2 else 1)
    assert _with_connection(b, L).reciprocity_sign is None


@pytest.mark.parametrize("spec", ["cycle:5", "figure8", "wheel:6"])
def test_schur_reciprocity_sign_rejects_a_broken_edge_block(spec):
    b = bundle_for(from_spec(spec))
    k, l = _disjoint_edges(b)
    # one edge diagonal set to 2: S_kk = 0
    broken = _with_connection(b, edited(b.connection, {(k, k): 2}))
    assert broken.schur[2][k - b.v] == 0
    assert broken.reciprocity_sign is None
    # a symmetric pair between two disjoint edges: S is not diagonal, which
    # the Schur blocks raise on and the certificate reports as None
    broken = _with_connection(b, edited(b.connection, {(k, l): 1, (l, k): 1}))
    with pytest.raises(ArithmeticError, match="not diagonal"):
        broken.schur
    assert broken.reciprocity_sign is None


def test_schur_reciprocity_sign_rejects_an_asymmetric_connection():
    # an isolated vertex has no U row, so a 1 written into its column of one
    # edge row leaves S = -I_e; only L != L^T rejects it
    b = bundle_for(Graph(4, ((0, 1), (1, 2))))
    broken = _with_connection(b, edited(b.connection, {(b.v, 3): 1}))
    assert broken.schur[2] == [-1] * b.e
    assert broken.reciprocity_sign is None
    assert b.reciprocity_sign == 1  # 6 cells


def test_hydrogen_residual_matches_dense_expression_on_corpus(corpus):
    # the one-pass sum over the nonzeros against |H| - (L - g) formed by two
    # matrix differences, and on a bundle whose g is wrong, where the
    # residual is not zero
    for spec, b in corpus.items():
        dense = b.hodge_signless - (b.connection - b.green)
        assert hydrogen_residual(b) == dense, spec
    b = bundle_for(from_spec("wheel:5"))
    broken = OperatorBundle(b.graph)
    broken.__dict__["green"] = linear_combination((b.green, 2))
    residual = hydrogen_residual(broken)
    assert residual == b.hodge_signless - (b.connection - linear_combination((b.green, 2)))
    assert residual == b.green and not residual.is_zero()


def _fresh_bundle_with(monkeypatch, b, name, matrix):
    """A new bundle of b's graph whose operators.<name> returns matrix."""
    monkeypatch.setattr(operators, name, lambda c: matrix)
    return OperatorBundle(b.graph)


def test_green_certificate_rejects_one_changed_entry(corpus, monkeypatch):
    # the sparse L @ g = I check must notice a flipped nonzero of g and a
    # zero of g that became nonzero
    rng = random.Random(4)
    for spec, b in corpus.items():
        cells = [(i, j) for i in range(b.size) for j in range(b.size)]
        green = b.green.rows
        nonzero = [(i, j) for i, j in cells if green[i][j]]
        zero = [(i, j) for i, j in cells if not green[i][j]]
        for (i, j), new in ((rng.choice(nonzero), None), (rng.choice(zero or nonzero), 1)):
            g = edited(b.green, {(i, j): -green[i][j] if new is None else new})
            broken = _fresh_bundle_with(monkeypatch, b, "green_star", g)
            with pytest.raises(ArithmeticError, match="certification"):
                broken.green
        monkeypatch.undo()


def test_connection_det_rejects_broken_blocks(corpus, monkeypatch):
    rng = random.Random(5)
    for spec, b in corpus.items():
        v, n = b.v, b.size
        broken_cells = [(rng.randrange(v), None)]  # a vertex diagonal entry of 2
        if v >= 2:
            x, y = rng.sample(range(v), 2)
            broken_cells.append((x, y))  # two vertices that intersect
        for x, y in broken_cells:
            L = edited(b.connection, {(x, x): 2} if y is None else {(x, y): 1})
            broken = _fresh_bundle_with(monkeypatch, b, "connection_matrix", L)
            with pytest.raises(ArithmeticError, match="vertex block"):
                broken.connection_det
        if b.e >= 2:
            # an edge-edge entry toggled: C - B B^T is no longer diagonal
            k, l = rng.sample(range(v, n), 2)
            L = edited(b.connection, {(k, l): b.connection.rows[k][l] ^ 1})
            broken = _fresh_bundle_with(monkeypatch, b, "connection_matrix", L)
            with pytest.raises(ArithmeticError, match="not diagonal"):
                broken.connection_det
        monkeypatch.undo()


def test_nonzeros_are_collected_once_per_operator(monkeypatch):
    # the certificate, the Schur det, the squared traces and the Perron
    # powers all read one cached matrix per operator: L and g are built once
    # each, by the bundle, as counted by the matrices _new makes with their
    # content
    from connlab.cli import _verify_checks
    from connlab.dynamics import perron_limits
    from connlab.spectra import bounds_report

    def content(cls, nrows, ncols, csr):
        return (cls, nrows, ncols, *(str(x.tolist()) for x in csr))

    builds = Counter()
    new = IntMatrix._new.__func__

    def recording_new(cls, nrows, ncols, csr, rows=None):
        builds[content(cls, nrows, ncols, csr)] += 1
        return new(cls, nrows, ncols, csr, rows)

    monkeypatch.setattr(IntMatrix, "_new", classmethod(recording_new))
    g = from_spec("figure8")
    b = bundle_for(g)
    L, green = (content(type(m), m.nrows, m.ncols, m.csr) for m in (b.connection, b.green))
    assert builds[L] == 1 and builds[green] == 1
    assert b.connection is b.connection and b.connection.csr is b.connection.csr
    # each run builds a bundle of its own; verify's green-star check also
    # forms the Schur inverse, the second g that the bundle's is compared
    # with, and bounds forms neither L nor g: its walk counts step the edge
    # ends
    for run, made in (
        (lambda: _verify_checks(bundle_for(g)), (1, 2)),
        (lambda: bounds_report(bundle_for(g)), (0, 0)),
        (lambda: perron_limits(bundle_for(g)), (1, 1)),
    ):
        builds.clear()
        run()
        assert (builds[L], builds[green]) == made


# graphs the corpus lacks: several components, isolated vertices, no edges,
# a bipartite component beside an odd one and two odd components
EXTRA_GRAPHS = {
    "two components": "0 1\n1 2\n2 0\n3 4\n4 5\n5 6\n6 3\n",
    "isolated vertices": "# vertices: 9\n0 1\n1 2\n2 3\n3 0\n1 3\n",
    "odd cycle, tree and isolated": "# vertices: 8\n0 1\n1 2\n2 0\n3 4\n4 5\n",
    "no edges": "# vertices: 4\n",
    "two odd cycles": "0 1\n1 2\n2 0\n3 4\n4 5\n5 6\n6 7\n7 3\n",
    "bowtie and a square": "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n5 6\n6 7\n7 8\n8 5\n",
}


def _extra_bundles():
    bundles = {name: bundle_for(parse_graph_text(text)[0]) for name, text in EXTRA_GRAPHS.items()}
    bundles["one vertex"] = bundle_for(Graph(1))
    return bundles


def test_supersymmetry_report_matches_the_charpoly_oracle(corpus):
    # the factor certificates against the four charpolys they replaced, on
    # all eight fields, over the corpus and the graphs it lacks
    bundles = {**corpus, **_extra_bundles()}
    for name, b in bundles.items():
        report = supersymmetry_report(b)
        assert report == supersymmetry_charpoly(b), name
        assert report.ok, name
    isolated = supersymmetry_report(bundles["odd cycle, tree and isolated"])
    # components: the triangle, the path 3-4-5, and vertices 6 and 7; only
    # the triangle is not bipartite
    assert (isolated.betti0, isolated.betti1, isolated.signless_kernel0) == (4, 1, 3)
    assert supersymmetry_report(bundles["one vertex"]) == operators.SupersymmetryReport(
        1, 0, 1, 0, True, 1, 0, True
    )


def test_forest_rank_matches_the_fraction_and_multimodular_ranks(corpus):
    # the spanning-forest certificate against Fraction elimination and the
    # multimodular rank it replaced, on d and |d|; it decides every graph
    bundles = {**corpus, **_extra_bundles(), "bary:grid:5,5": bundle_for(from_spec("bary:grid:5,5"))}
    for name, b in bundles.items():
        forest = spanning_forest(b.complex)
        indicators, colourings = component_vectors(b.graph)
        assert forest.components == betti_numbers(b.graph)[0] == len(indicators), name
        for d, signless, kernel in (
            (b.incidence, False, indicators),
            (b.incidence_signless, True, colourings),
        ):
            want = rank(d)
            assert forest_rank(d, forest, signless) == want == certified_rank(d, kernel), name
        # the odd components are the ones no colouring of |d| annihilates
        assert rank(b.incidence_signless) == b.v - forest.components + len(forest.odd), name
    assert spanning_forest(bundles["two odd cycles"].complex).odd == {0, 1}
    assert spanning_forest(bundles["bowtie and a square"].complex).odd == {0}


# each mutation with the graphs it breaks: on a tree the row count caps the
# upper bound, so only the triangular forest minor can reject a bad forest
# row, and only a graph with an odd cycle has rows to resign
_ROW_FAULT_GRAPHS = ("path:5", "cycle:5", "wheel:6", "figure8", "odd cycle, tree and isolated")
_ODD_GRAPHS = ("cycle:5", "wheel:6", "two odd cycles", "odd cycle, tree and isolated")
CERTIFICATE_MUTATIONS = {
    "stray_forest_entry-signed": (lambda real: stray_forest_entry(real, False), False, _ROW_FAULT_GRAPHS),
    "stray_forest_entry-signless": (lambda real: stray_forest_entry(real, True), True, _ROW_FAULT_GRAPHS),
    "zeroed_forest_pivot-signed": (lambda real: zeroed_forest_pivot(real, False), False, _ROW_FAULT_GRAPHS),
    "zeroed_forest_pivot-signless": (lambda real: zeroed_forest_pivot(real, True), True, _ROW_FAULT_GRAPHS),
    "resigned_odd_rows": (resigned_odd_rows, True, _ODD_GRAPHS),
    "shared_odd_row": (shared_odd_row, True, ("two odd cycles",)),
    "broken_colouring": (broken_colouring, True, _ODD_GRAPHS + ("figure8",)),
}


@pytest.mark.parametrize(
    "mutation, signless, names", CERTIFICATE_MUTATIONS.values(), ids=CERTIFICATE_MUTATIONS
)
def test_supersymmetry_report_rejects_a_broken_rank_certificate(monkeypatch, mutation, signless, names):
    # a faulty forest row, pivot, odd row or colouring reaches only the rank
    # certificate: the Gram blocks still match, the bounds do not meet, and
    # the kernel counts of that factor read None, so the report is not ok
    monkeypatch.setattr(operators, "forest_rank", mutation(operators.forest_rank))
    extra = _extra_bundles()
    for name in names:
        b = extra.get(name) or bundle_for(from_spec(name))
        report = supersymmetry_report(b)
        want = supersymmetry_charpoly(b)
        kernels = [report.kernel0, report.kernel1, report.signless_kernel0, report.signless_kernel1]
        expected = [want.kernel0, want.kernel1, want.signless_kernel0, want.signless_kernel1]
        expected[2 * signless : 2 * signless + 2] = [None, None]
        assert kernels == expected, name
        assert report.nonzero_match and report.signless_nonzero_match, name
        assert not report.ok, name


def test_supersymmetry_report_rejects_a_permuted_edge_block():
    # P H1 P^T has the charpoly of H1, so the charpoly route passes it; it
    # is not d d^T, so the factor certificate does not
    b = bundle_for(from_spec("figure8"))
    order = list(range(b.e))[::-1]
    for name in ("hodge1", "hodge1_signless"):
        h1 = getattr(b, name)
        broken = OperatorBundle(b.graph)
        broken.__dict__[name] = from_rows([[h1.rows[i][j] for j in order] for i in order])
        assert broken.__dict__[name] != h1
        assert supersymmetry_charpoly(broken).ok, name
        assert not supersymmetry_report(broken).ok, name


def test_supersymmetry_report_rejects_a_vertex_block_that_is_not_kirchhoff():
    # a relabelled H0 has the right spectrum but is not the Kirchhoff matrix
    b = bundle_for(from_spec("figure8"))
    order = [1, 0] + list(range(2, b.v))
    broken = OperatorBundle(b.graph)
    broken.__dict__["hodge0"] = from_rows([[b.hodge0.rows[i][j] for j in order] for i in order])
    assert broken.hodge0 != b.kirchhoff
    assert supersymmetry_charpoly(broken).ok
    assert not supersymmetry_report(broken).ok
    # a tree whose incidence has one unsigned row: H0 = d^T d and H1 = d d^T
    # still hold and every kernel count is right, but d^T d has a +1 where
    # the Kirchhoff matrix has a -1
    tree = bundle_for(from_spec("path:4"))
    broken = OperatorBundle(tree.graph)
    broken.__dict__["incidence"] = from_rows([[1, 1, 0, 0]] + tree.incidence.rows[1:])
    assert supersymmetry_charpoly(broken).ok
    report = supersymmetry_report(broken)
    assert (report.kernel0, report.kernel1) == (1, 0)
    assert not report.nonzero_match and not report.ok


@pytest.mark.parametrize("signless", [False, True], ids=["signed", "signless"])
@pytest.mark.parametrize(
    "mutation, keeps_blocks",
    [(negated_edge_row, False), (stray_vertex_entry, True)],
    ids=["negated_edge_row", "stray_vertex_entry"],
)
def test_supersymmetry_report_rejects_a_faulty_dirac_builder(
    monkeypatch, mutation, keeps_blocks, signless
):
    # H is the Dirac square, so the check must come from d itself: an edge
    # row of D negated with its column left alone changes H0 and H1, and a
    # stray entry in the vertex block of D squares to zero there, so H0 and
    # H1 stay d^T d and d d^T and only the off-diagonal blocks of H show it
    real = operators.dirac_from_incidence
    monkeypatch.setattr(operators, "dirac_from_incidence", mutation(real, signless))
    for spec in ("figure8", "wheel:6", "path:4", "bary:complete:4"):
        bundle = bundle_for(from_spec(spec))
        if signless:
            d, h0, h1 = bundle.incidence_signless, bundle.hodge0_signless, bundle.hodge1_signless
        else:
            d, h0, h1 = bundle.incidence, bundle.hodge0, bundle.hodge1
        gram = h0 == dense_matmul(d.transpose(), d) and h1 == dense_matmul(d, d.transpose())
        assert gram == keeps_blocks, spec
        report = supersymmetry_report(bundle)
        assert (report.nonzero_match, report.signless_nonzero_match) == (signless, not signless)
        assert not report.ok, spec


BUNDLE_OPERATORS = (
    "incidence", "incidence_signless", "dirac", "dirac_signless", "hodge", "hodge_signless",
    "hodge0", "hodge1", "hodge0_signless", "hodge1_signless", "kirchhoff",
    "kirchhoff_signless", "connection", "green",
)


def _assert_same(m, oracle, label):
    """m equals the dense oracle: the same shape, dense rows and pairs."""
    assert m.shape == oracle.shape, label
    assert m.rows == oracle.rows, label
    assert pairs(m) == pairs(oracle), label
    assert m == oracle and oracle == m, label


def test_sparse_builders_match_their_dense_oracles_on_corpus(corpus):
    # every builder writes its compressed rows directly; tests/oracles.py
    # writes the same operators entry by entry into dense rows.  The Dirac
    # builder and its square are also checked under a seeded random
    # orientation, from the flipped dense incidence
    rng = random.Random(2113)
    for spec, b in corpus.items():
        c = b.complex
        d0 = dense_incidence_signed(c)
        d0abs = dense_abs(d0)
        kirchhoff = dense_kirchhoff(c.graph)
        green = dense_green_star(c)
        for name, oracle in (
            ("incidence", d0),
            ("incidence_signless", d0abs),
            ("dirac", dense_dirac(d0)),
            ("dirac_signless", dense_dirac(d0abs)),
            ("hodge", dense_hodge(d0)),
            ("hodge_signless", dense_hodge(d0abs)),
            ("kirchhoff", kirchhoff),
            ("kirchhoff_signless", dense_abs(kirchhoff)),
            ("connection", dense_connection(c)),
            ("green", green),
        ):
            _assert_same(getattr(b, name), oracle, (spec, name))
        _assert_same(green_star(c), green, (spec, "green_star"))
        _assert_same(b.schur_inverse(), green, (spec, "schur_inverse"))
        _assert_same(hydrogen_residual(b), dense_hydrogen_residual(b), (spec, "hydrogen_residual"))
        assert pairs(hydrogen_residual(b)) == [[]] * b.size, spec
        flipped = dense_incidence_signed(c, [rng.choice((-1, 1)) for _ in range(b.e)])
        dirac = dirac_from_incidence(flipped)
        _assert_same(dirac, dense_dirac(flipped), (spec, "flipped dirac"))
        _assert_same(dirac @ dirac, dense_hodge(flipped), (spec, "flipped hodge"))


def _same_csr(a: IntMatrix, b: IntMatrix) -> bool:
    """a and b have one shape and identical compressed rows, dtypes included."""
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tolist() == y.tolist() for x, y in zip(a.csr, b.csr)
    )


def test_storage_views_agree_on_every_bundle_operator(corpus):
    # rows (built afresh from the compressed rows on each read), pairs, apply
    # and to_float describe one matrix; the dense rows give the same
    # compressed rows back, in the same dtype
    rng = random.Random(4127)
    for spec, b in corpus.items():
        for name in BUNDLE_OPERATORS:
            m = getattr(b, name)
            rows = m.rows
            again = m.rows
            assert again == rows and again is not rows and len(rows) == m.nrows, (spec, name)
            assert all(x is not y for x, y in zip(again, rows)), (spec, name)
            assert all(len(row) == m.ncols for row in rows), (spec, name)
            dense = from_rows(rows, ncols=m.ncols)
            assert dense == m and _same_csr(dense, m), (spec, name)
            assert pairs(dense) == pairs(m), (spec, name)
            assert all(a for row in pairs(m) for _, a in row), (spec, name)
            assert all(
                [j for j, _ in row] == sorted({j for j, _ in row}) for row in pairs(m)
            ), (spec, name)
            assert np.array_equal(m.to_float(), np.array(rows, dtype=float).reshape(m.shape))
            vec = [rng.randint(-(2**70), 2**70) for _ in range(m.ncols)]
            want = tuple(sum(a * x for a, x in zip(row, vec)) for row in rows)
            assert m.apply(vec) == want == dense.apply(vec), (spec, name)
    # at the int64 edge from_csr, from_triplets and the dense rows (stored
    # through from_triplets) agree, dtype included: row 0
    # and column 1 are zero, and only 2^63 - 1 of the values fits in int64
    # (-2^63 does, but its negation does not)
    for x in (-(2**63), 2**63 - 1, 2**63, 2**70):
        rows = [[0, 0, 0], [x, 0, -1]]
        dense = from_rows(rows)
        via_csr = IntMatrix.from_csr([0, 0, 2], [0, 2], [x, -1], 2, 3)
        via_triplets = IntMatrix.from_triplets([1, 1], [0, 2], [x, -1], 2, 3)
        dtype = np.int64 if x == 2**63 - 1 else object
        for m in (dense, via_csr, via_triplets):
            assert _same_csr(m, dense) and m == dense, x
            assert m.csr[2].dtype == dtype and m.csr[2].tolist() == [x, -1], x
            assert m.rows == rows and from_rows(m.rows) == m, x


def test_bundle_certifies_at_24840_cells_without_a_dense_view(monkeypatch):
    # bary:grid:60,60: L g = I, det L = +-1, |H| = L - L^-1 and energy = chi,
    # all over the nonzeros; a dense list of rows or a dense array of any
    # matrix would be 24840^2 entries, so building one fails the test
    def refuse(self, *args):
        raise AssertionError(f"dense view of a {self.shape} matrix")

    monkeypatch.setattr(IntMatrix, "_dense_rows", refuse)
    monkeypatch.setattr(IntMatrix, "to_array", refuse)
    b = bundle_for(from_spec("bary:grid:60,60"))
    assert b.size == 24840
    g = b.green  # certified against L over the nonzeros, or ArithmeticError
    assert b.connection_det in (1, -1) and b.connection_det == (-1) ** b.e
    assert hydrogen_residual(b).is_zero()
    assert b.green.entry_sum() == b.v - b.e
    assert g.nnz < 10 * b.size
