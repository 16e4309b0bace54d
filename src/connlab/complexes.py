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


def parity(x: Simplex) -> int:
    """omega(x) = (-1)^dim(x): +1 on vertices, -1 on edges."""
    return -1 if len(x) == 2 else 1


def simplices_intersect(x: Simplex, y: Simplex) -> bool:
    return bool(set(x) & set(y))


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

    def euler_characteristic(self) -> int:
        return self.v - self.e

    def f_vector(self) -> tuple[int, int]:
        return (self.v, self.e)

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
    together with its incident edges.
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


def connection_graph(c: Complex) -> Graph:
    """Graph on the simplices; two distinct simplices are adjacent iff they
    intersect.  Vertex-simplices never touch each other, an edge touches its
    two endpoints and every edge sharing an endpoint."""
    n = c.size
    edges = []
    for i in range(n):
        si = set(c.simplices[i])
        for j in range(i + 1, n):
            if si & set(c.simplices[j]):
                edges.append((i, j))
    name = f"conn({c.graph.name})" if c.graph.name else "conn"
    return Graph(n, tuple(edges), name)


# The f-vector of the barycentric refinement is the Stirling-type image of
# the original f-vector: (v, e) -> (v + e, 2e).

STIRLING_1D = ((1, 1), (0, 2))


def stirling_map(f: tuple[int, int]) -> tuple[int, int]:
    v, e = f
    return (STIRLING_1D[0][0] * v + STIRLING_1D[0][1] * e,
            STIRLING_1D[1][0] * v + STIRLING_1D[1][1] * e)
