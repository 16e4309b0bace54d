"""Operator construction against frozen fixtures and structural identities.

The 15x15 matrices below are a frozen reference for the figure-8 graph (two
squares sharing a vertex): connection matrix, its integer inverse, and the
Dirac operator.  They were fixed once from an independent derivation and
guard against silent changes in cell ordering or sign conventions.
"""

import random

import pytest

from connlab.complexes import build_complex
from connlab.exact import IntMatrix
from connlab.graphs import from_spec
from connlab.operators import (
    OperatorBundle,
    block,
    bundle_for,
    energy,
    energy_holds,
    hydrogen_holds,
    hydrogen_residual,
    is_unimodular,
    supersymmetry_report,
    trace_report,
)
from conftest import SAMPLE_SPECS

FIG8_L = IntMatrix(
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

FIG8_G = IntMatrix(
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

FIG8_D = IntMatrix(
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
    assert (FIG8_L @ FIG8_G).rows == IntMatrix.identity(15).rows


def test_figure8_frozen_dirac(fig8):
    assert fig8.dirac.rows == FIG8_D.rows
    assert fig8.hodge.rows == (FIG8_D @ FIG8_D).rows


def test_figure8_identities(fig8):
    assert hydrogen_holds(fig8)
    assert is_unimodular(fig8)
    assert energy(fig8) == 7 - 8
    # determinant sign follows the edge count: (-1)^8 = 1
    assert fig8.connection_det == 1


def test_k2_small_matrices():
    b = bundle_for(from_spec("complete:2"))
    assert b.connection.rows == IntMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 1]]).rows
    assert b.green.rows == IntMatrix([[0, -1, 1], [-1, 0, 1], [1, 1, -1]]).rows
    assert b.hodge_signless.rows == IntMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]).rows


def test_connection_block_structure():
    b = bundle_for(from_spec("cycle:4"))
    L = b.connection
    # vertices never intersect each other, so the vertex block is the identity
    assert block(L, 0, 4, 0, 4).rows == IntMatrix.identity(4).rows
    # the vertex-edge block records incidence without signs
    assert block(L, 0, 4, 4, 8).rows == b.incidence_signless.transpose().rows
    # diagonal is all ones
    assert all(L.rows[i][i] == 1 for i in range(8))


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_identities_on_sample(spec, sample):
    b = sample[spec]
    assert hydrogen_residual(b).max_abs() == 0
    assert is_unimodular(b)
    assert energy_holds(b)
    assert trace_report(b).ok
    assert supersymmetry_report(b).ok


@pytest.mark.parametrize("spec", ["cycle:5", "path:4", "figure8"])
def test_kirchhoff_equals_hodge_vertex_block(spec, sample):
    b = sample.get(spec) or bundle_for(from_spec(spec))
    # two routes: degree-minus-adjacency versus the incidence square
    assert b.kirchhoff.rows == b.hodge0.rows
    assert b.kirchhoff_signless.rows == b.hodge0_signless.rows


def test_orientation_invariance():
    g = from_spec("figure8")
    c = build_complex(g)
    default = OperatorBundle(c)
    flipped = OperatorBundle(c, signs=[-1 if i % 2 else 1 for i in range(g.e)])
    # connection, Green inverse, vertex Hodge block and the signless Hodge
    # do not depend on edge orientations
    assert flipped.connection.rows == default.connection.rows
    assert flipped.green.rows == default.green.rows
    assert flipped.hodge0.rows == default.hodge0.rows
    assert flipped.hodge_signless.rows == default.hodge_signless.rows
    # the signed edge block changes, but only by a diagonal conjugation,
    # so characteristic polynomials agree
    from connlab.exact import charpoly

    assert charpoly(flipped.hodge1).coeffs == charpoly(default.hodge1).coeffs


def test_signless_hodge_is_entrywise_abs():
    b = bundle_for(from_spec("grid:3,3"))
    H = b.hodge.rows
    A = b.hodge_signless.rows
    for i in range(b.size):
        for j in range(b.size):
            assert A[i][j] == abs(H[i][j])


def test_hodge_matches_dirac_square_on_corpus(corpus):
    # H and |H| are summed from the incidence nonzeros; the dense D @ D is
    # the oracle, under the default and a seeded random orientation
    rng = random.Random(1803)
    for spec, b in corpus.items():
        assert b.hodge == b.dirac @ b.dirac, spec
        assert b.hodge_signless == b.dirac_signless @ b.dirac_signless, spec
        flipped = OperatorBundle(b.complex, signs=[rng.choice((-1, 1)) for _ in range(b.e)])
        assert flipped.hodge == flipped.dirac @ flipped.dirac, spec
