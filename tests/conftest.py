"""Shared corpus of graphs for the test suite.

The corpus covers every deterministic generator family at small sizes,
barycentric refinements, and 100 seeded random graphs with at most 20
vertices; a bit over 200 graphs in total.  Operator bundles are built once
per session and shared, since everything downstream (identities, spectra,
dynamics) reads from the same cached operators; so is charpoly(L^2) of
every corpus graph, the oracle that reciprocity is checked against.
"""

from __future__ import annotations

import pytest

from connlab.graphs import from_spec
from connlab.operators import OperatorBundle, bundle_for
from oracles import IntPolynomial, charpoly, graeffe


def _deterministic_specs() -> list[str]:
    specs: list[str] = []
    specs += [f"cycle:{n}" for n in range(3, 21)]
    specs += [f"path:{n}" for n in range(2, 21)]
    specs += [f"star:{n}" for n in range(3, 16)]
    specs += [f"wheel:{n}" for n in range(4, 16)]
    specs += [f"complete:{n}" for n in range(2, 9)]
    specs += [
        "complete_bipartite:2,2",
        "complete_bipartite:2,3",
        "complete_bipartite:2,4",
    ]
    specs += [f"complete_bipartite:3,{k}" for k in range(3, 10)]
    specs += [
        "grid:2,2",
        "grid:2,3",
        "grid:2,4",
        "grid:2,5",
        "grid:3,3",
        "grid:3,4",
        "grid:4,4",
        "grid:6,2",
        "grid:6,3",
        "grid:6,4",
    ]
    specs += ["petersen:5,2", "petersen:6,2", "petersen:6,3", "petersen:7,2", "petersen:8,3"]
    specs += ["figure8"]
    specs += [f"bary:cycle:{n}" for n in range(4, 9)]
    specs += [f"bary:path:{n}" for n in range(3, 7)]
    specs += [f"bary:star:{n}" for n in range(3, 7)]
    specs += ["bary:complete:3", "bary:complete:4", "bary:wheel:4", "bary:figure8"]
    return specs


def _random_specs() -> list[str]:
    shapes = ((12, 15), (16, 24), (20, 30), (20, 50))
    specs = []
    for i, (n, m) in enumerate(shapes):
        for seed in range(25):
            specs.append(f"gnm:{n},{m}:seed={100 * i + seed}")
    return specs


DETERMINISTIC_SPECS = _deterministic_specs()
RANDOM_SPECS = _random_specs()
CORPUS_SPECS = DETERMINISTIC_SPECS + RANDOM_SPECS

# a small slice for the expensive exact cross-checks in unit tests
SAMPLE_SPECS = [
    "cycle:4",
    "cycle:5",
    "path:4",
    "star:4",
    "wheel:4",
    "complete:4",
    "complete_bipartite:3,3",
    "grid:3,3",
    "petersen:5,2",
    "figure8",
    "bary:cycle:4",
    "bary:star:3",
    "gnm:12,15:seed=0",
    "gnm:20,50:seed=301",
]


def build_corpus() -> dict[str, OperatorBundle]:
    """Fresh bundles for every corpus spec, keyed by spec string."""
    return {spec: bundle_for(from_spec(spec)) for spec in CORPUS_SPECS}


@pytest.fixture(scope="session")
def corpus() -> dict[str, OperatorBundle]:
    return build_corpus()


@pytest.fixture(scope="session")
def sample(corpus) -> dict[str, OperatorBundle]:
    return {spec: corpus[spec] for spec in SAMPLE_SPECS}


@pytest.fixture(scope="session")
def squared_charpolys(corpus) -> dict[str, IntPolynomial]:
    """charpoly(L^2) of every corpus graph, by the multimodular charpoly of L
    and Graeffe's root-squaring step (tests/oracles.py)."""
    return {spec: graeffe(charpoly(b.connection)) for spec, b in corpus.items()}
