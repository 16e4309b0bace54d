"""One-dimensional simplicial complexes over a graph.

A graph G is treated as the complex whose simplices are its vertices and
edges (faces of dimension 0 and 1); higher cliques are never promoted to
cells.  Simplices are plain sorted tuples.  The canonical ordering lists
all vertices ascending first, then all edges lexicographically; every
operator matrix downstream is indexed by this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import Graph

Simplex = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Complex:
    """The 1-dimensional complex of a graph, with its canonical simplex order."""

    graph: Graph
    simplices: tuple[Simplex, ...]
    index: dict[Simplex, int] = field(repr=False)

    @property
    def v(self) -> int:
        return self.graph.n

    @property
    def e(self) -> int:
        return self.graph.e

    @property
    def size(self) -> int:
        return len(self.simplices)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the simplex indices of its incident edges, ascending."""
        incident: list[list[int]] = [[] for _ in range(self.v)]
        for k, (a, b) in enumerate(self.graph.edges, start=self.v):
            incident[a].append(k)
            incident[b].append(k)
        return tuple(map(tuple, incident))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges (a, b), a < b, as the rows of an e x 2 index array."""
        return np.array(self.graph.edges, dtype=np.intp).reshape(-1, 2)


def build_complex(g: Graph) -> Complex:
    simplices: list[Simplex] = [(i,) for i in range(g.n)]
    simplices.extend(g.edges)
    index = {s: i for i, s in enumerate(simplices)}
    return Complex(g, tuple(simplices), index)


def star(c: Complex, x: Simplex) -> tuple[Simplex, ...]:
    """All simplices containing x, in canonical order.

    For an edge that is just the edge itself; for a vertex it is the vertex
    together with its incident edges.  This is St(x) of the star formula
    for g (see operators), which reads the stars off incident_edges instead.
    """
    if x not in c.index:
        raise KeyError(f"{x} is not a simplex of the complex")
    if len(x) == 2:
        return (x,)
    return (x,) + tuple(c.simplices[k] for k in c.incident_edges[x[0]])


def sphere_chi(c: Complex, x: Simplex) -> int:
    """Euler characteristic of the unit sphere of x in the refinement:
    deg(x) for a vertex, 2 for an edge."""
    if x not in c.index:
        raise KeyError(f"{x} is not a simplex of the complex")
    if len(x) == 2:
        return 2
    return len(c.incident_edges[x[0]])
