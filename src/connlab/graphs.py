"""Finite simple graphs: families, random models, text I/O, basic invariants.

Vertices are dense integers 0..n-1; edges are unordered pairs stored as
sorted tuples in lexicographic order.  Graph objects are immutable values,
so everything downstream (complexes, operators) can cache safely.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, bad family parameters, or bad input files."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex set {0, ..., n-1}.

    Edges are canonicalized on construction: each pair sorted, the tuple of
    pairs sorted lexicographically, duplicates and self-loops rejected.
    Isolated vertices are allowed; a graph needs at least one vertex.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError("a graph needs at least one vertex")
        canon = []
        for pair in self.edges:
            u, v = pair
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {pair} out of range for n={self.n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def e(self) -> int:
        return len(self.edges)

    def neighbors(self) -> list[list[int]]:
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return nbr

    def with_name(self, name: str) -> "Graph":
        return Graph(self.n, self.edges, name)


# ---------------------------------------------------------------------------
# invariants


def connected_components(g: Graph) -> list[list[int]]:
    """Components via union-find, each returned as a sorted vertex list."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for x in range(g.n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def betti_numbers(g: Graph) -> tuple[int, int]:
    """(b0, b1) of the graph: component count and independent cycle count."""
    b0 = len(connected_components(g))
    return b0, g.e - g.n + b0


def is_regular(degrees: Sequence[int]) -> bool:
    """Whether a degree sequence, such as OperatorBundle.degrees, is constant."""
    return len(set(degrees)) == 1


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    """Subgraph on the given vertices, relabeled densely in the given order."""
    pos = {v: i for i, v in enumerate(vertices)}
    edges = tuple(
        (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
    )
    return Graph(len(vertices), edges, g.name)


def diameter(g: Graph) -> int:
    """Graph diameter by a bit-parallel all-sources BFS.

    reach[x] is the set of sources within distance r of x, held as the bits
    of one Python int.  One level ORs each vertex's bitset with those of its
    neighbours, so it costs 2e big-int ORs of n bits; the diameter is the
    first r at which every bitset is full.  Raises on disconnected input,
    found as a level that changes no bitset before all are full.
    """
    nbr = g.neighbors()
    full = (1 << g.n) - 1
    reach = [1 << x for x in range(g.n)]
    r = 0
    while any(bits != full for bits in reach):
        nxt = []
        for bits, ys in zip(reach, nbr):
            for y in ys:
                bits |= reach[y]
            nxt.append(bits)
        if nxt == reach:
            raise GraphError("diameter of a disconnected graph is infinite")
        reach = nxt
        r += 1
    return r


# ---------------------------------------------------------------------------
# derived graphs


def barycentric_refinement(g: Graph) -> Graph:
    """Subdivide every edge once: new vertices n..n+e-1 are the old edges,
    and each old edge {a,b} becomes the two edges {a,m},{b,m}."""
    edges = []
    for i, (u, v) in enumerate(g.edges):
        m = g.n + i
        edges.append((u, m))
        edges.append((v, m))
    name = f"bary({g.name})" if g.name else "bary"
    return Graph(g.n + g.e, tuple(edges), name)


# ---------------------------------------------------------------------------
# deterministic families


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)), f"C{n}")


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)), f"P{n}")


def star_graph(center_degree: int) -> Graph:
    """Star with the given central degree: vertex 0 joined to 1..d."""
    if center_degree < 1:
        raise GraphError("star needs center degree >= 1")
    d = center_degree
    return Graph(d + 1, tuple((0, i) for i in range(1, d + 1)), f"S{d}")


def wheel_graph(center_degree: int) -> Graph:
    """Hub (vertex 0) joined to every vertex of a cycle of that length."""
    if center_degree < 3:
        raise GraphError("wheel needs center degree >= 3")
    d = center_degree
    rim = [(i, i % d + 1) for i in range(1, d + 1)]
    spokes = [(0, i) for i in range(1, d + 1)]
    return Graph(d + 1, tuple(rim + spokes), f"W{d}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, tuple(combinations(range(n), 2)), f"K{n}")


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete bipartite graph needs both sides nonempty")
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(a + b, edges, f"K{a},{b}")


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    def idx(r: int, c: int) -> int:
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    return Graph(rows * cols, tuple(edges), f"grid{rows}x{cols}")


def petersen_graph(m: int, k: int) -> Graph:
    """Generalized Petersen graph: outer m-cycle u_i, inner skip-k edges
    v_i ~ v_{i+k mod m}, and spokes u_i ~ v_i.

    The inner edges are deduplicated as sets, so k = m/2 yields the inner
    perfect matching.  k == 0 (mod m) would create self-loops and is rejected.
    """
    if m < 3:
        raise GraphError("generalized Petersen graph needs m >= 3")
    if k % m == 0:
        raise GraphError("petersen skip k must be nonzero mod m")
    outer = [(i, (i + 1) % m) for i in range(m)]
    spokes = [(i, m + i) for i in range(m)]
    inner = {tuple(sorted((m + i, m + (i + k) % m))) for i in range(m)}
    return Graph(2 * m, tuple(outer + spokes + sorted(inner)), f"GP({m},{k})")


def figure_eight_graph() -> Graph:
    """Two 4-cycles glued at one vertex (7 vertices, 8 edges).

    Vertex 1 is the shared vertex; cycles are (0,1,2,3) and (1,4,5,6).
    """
    edges = ((0, 1), (0, 3), (1, 2), (1, 4), (1, 6), (2, 3), (4, 5), (5, 6))
    return Graph(7, edges, "fig8")


# ---------------------------------------------------------------------------
# random families (deterministic given the seed)


def gnm_random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform G(n, m) via rejection sampling of distinct pairs.

    Uses the stdlib Mersenne Twister seeded with the given integer, drawing
    endpoint pairs until m distinct edges are collected.
    """
    if seed is None:
        raise GraphError("random families require an explicit seed")
    if not 0 <= m <= n * (n - 1) // 2:
        raise GraphError(f"cannot place {m} edges on {n} vertices")
    rng = random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(chosen)), f"gnm({n},{m};{seed})")


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each pair (i, j), i < j in lexicographic order, flipped
    independently with probability p."""
    if seed is None:
        raise GraphError("random families require an explicit seed")
    if not 0.0 <= p <= 1.0:
        raise GraphError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = tuple(pair for pair in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges, f"gnp({n},{p};{seed})")


_FAMILIES = {
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "star": (star_graph, 1),
    "wheel": (wheel_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
    "grid": (grid_graph, 2),
    "petersen": (petersen_graph, 2),
    "figure8": (figure_eight_graph, 0),
}


def generate(family: str, *params: int | float, seed: int | None = None) -> Graph:
    """Build a named family member; random families need an explicit seed.
    Every parameter but gnp's probability must be integral."""
    for x in params[: 1 if family == "gnp" else None]:
        if not (isinstance(x, int) or float(x).is_integer()):
            raise GraphError(f"{family} parameter {x} is not an integer")
    if family in _FAMILIES:
        fn, arity = _FAMILIES[family]
        if len(params) != arity:
            raise GraphError(f"{family} takes {arity} parameter(s), got {len(params)}")
        return fn(*[int(p) for p in params])
    if family == "gnm":
        if len(params) != 2:
            raise GraphError("gnm takes parameters n,m")
        return gnm_random_graph(int(params[0]), int(params[1]), seed)
    if family == "gnp":
        if len(params) != 2:
            raise GraphError("gnp takes parameters n,p")
        return gnp_random_graph(int(params[0]), float(params[1]), seed)
    raise GraphError(f"unknown family {family!r}")


# (vertices, edges) of each family member read off its parameters, with a
# bound in place of the edges where that is simpler; for gnp the bound is the
# number of pairs the generator visits
_SIZES = {
    "cycle": lambda n: (n, n),
    "path": lambda n: (n, n - 1),
    "star": lambda d: (d + 1, d),
    "wheel": lambda d: (d + 1, 2 * d),
    "complete": lambda n: (n, n * (n - 1) // 2),
    "complete_bipartite": lambda a, b: (a + b, a * b),
    "grid": lambda r, c: (r * c, 2 * r * c),
    "petersen": lambda m, k: (2 * m, 3 * m),
    "figure8": lambda: (7, 8),
    "gnm": lambda n, m: (n, m),
    "gnp": lambda n, p: (n, n * (n - 1) // 2),
}

MAX_SPEC_CELLS = 10**6  # vertices plus edges of the largest graph a spec or graph file may give


def _number(token: str) -> int | float:
    """token as an int when it reads as one, else as a float (4e0, 1e-1)."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def from_spec(spec: str) -> Graph:
    """Parse an inline generator spec such as 'cycle:8', 'grid:6,3',
    'gnm:20,50:seed=7', or 'bary:cycle:4' (barycentric refinement prefix).

    A spec whose graph would have more than MAX_SPEC_CELLS vertices plus
    edges is rejected from its parameters, before anything is built.  The
    bary: prefixes are taken off in a loop, so their number has no limit
    but the cap.
    """
    refinements = 0
    while spec.strip().startswith("bary:"):
        spec, refinements = spec.strip()[5:], refinements + 1
    text = spec.strip()
    parts = text.split(":")
    family = parts[0]
    params: tuple[int | float, ...] = ()
    seed = None
    try:
        for extra in parts[1:]:
            if extra.startswith("seed="):
                seed = int(extra[5:])
            elif extra:
                params = tuple(map(_number, extra.split(",")))
    except ValueError:
        raise GraphError(f"spec {spec!r} has a parameter that is not a number") from None
    if not all(map(math.isfinite, params)):
        raise GraphError(f"spec {spec!r} has a parameter that is not finite")
    size = _SIZES.get(family)
    if size is not None and size.__code__.co_argcount == len(params):
        n, e = size(*[max(int(x), 0) for x in params])
        for _ in range(refinements):
            n, e = n + e, 2 * e
        if n + e > MAX_SPEC_CELLS:
            full = "bary:" * refinements + text
            raise GraphError(f"spec {full!r} has {n + e} cells, above the cap of {MAX_SPEC_CELLS}")
    g = generate(family, *params, seed=seed)
    for _ in range(refinements):
        g = barycentric_refinement(g)
    return g


# ---------------------------------------------------------------------------
# text format
#
#   # name: C4        optional label comment
#   # vertices: 7     optional vertex count (for isolated vertices)
#   0 1               one edge per line, whitespace separated
#
# Arbitrary integer labels are accepted and relabeled densely in first
# appearance order; the mapping old->new is returned alongside the graph.
# A text whose vertices plus edges exceed MAX_SPEC_CELLS is rejected.


def parse_graph_text(text: str) -> tuple[Graph, dict[int, int]]:
    name = ""
    declared_n: int | None = None
    raw_edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("name:") and not name:
                name = body[5:].strip()
            elif body.startswith("vertices:"):
                try:
                    declared_n = int(body[9:].strip())
                except ValueError:
                    raise GraphError(f"line {lineno}: vertex count is not an integer") from None
            continue
        toks = stripped.split()
        if len(toks) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {stripped!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer label") from exc
        raw_edges.append((u, v))
    mapping: dict[int, int] = {}
    for u, v in raw_edges:
        for x in (u, v):
            if x not in mapping:
                mapping[x] = len(mapping)
    n = len(mapping)
    if declared_n is not None:
        if declared_n < n:
            raise GraphError("declared vertex count below number of labels used")
        n = declared_n
    if n == 0:
        raise GraphError("empty graph: no vertices")
    if n + len(raw_edges) > MAX_SPEC_CELLS:
        raise GraphError(
            f"graph has {n + len(raw_edges)} cells, above the cap of {MAX_SPEC_CELLS}"
        )
    edges = tuple((mapping[u], mapping[v]) for u, v in raw_edges)
    return Graph(n, edges, name), mapping


def load_graph(path: str) -> tuple[Graph, dict[int, int]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def dump_graph_text(g: Graph) -> str:
    lines = []
    if g.name:
        lines.append(f"# name: {g.name}")
    used = {x for edge in g.edges for x in edge}
    if len(used) < g.n:
        lines.append(f"# vertices: {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_graph_text(g))
