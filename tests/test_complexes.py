"""One-dimensional complexes: cells, stars, unit-sphere characteristics."""

from connlab.complexes import build_complex, sphere_chi, star
from connlab.graphs import barycentric_refinement, from_spec
from connlab.operators import bundle_for
from oracles import degrees, parity, simplices_intersect


def test_cell_layout():
    c = build_complex(from_spec("figure8"))
    assert c.v == 7
    assert c.e == 8
    assert c.size == 15
    # vertices come first, then edges, both in sorted order
    assert c.simplices[: c.v] == tuple((i,) for i in range(7))
    assert all(len(x) == 2 for x in c.simplices[c.v :])
    assert c.index[(1, 4)] == c.v + 3
    assert c.v - c.e == -1
    assert (c.v, c.e) == (7, 8)


def test_parity_alternates_with_dimension():
    assert parity((3,)) == 1
    assert parity((3, 5)) == -1


def test_intersection_is_symmetric_and_reflexive():
    c = build_complex(from_spec("grid:3,3"))
    for x in c.simplices:
        assert simplices_intersect(x, x)
    for x in c.simplices:
        for y in c.simplices:
            assert simplices_intersect(x, y) == simplices_intersect(y, x)


def test_star_sizes():
    for spec in ("star:5", "figure8", "grid:3,4", "bary:star:4", "gnm:12,15:seed=0"):
        g = from_spec(spec)
        c = build_complex(g)
        deg = degrees(g)
        for i in range(g.n):
            # the star of a vertex holds the vertex itself and its incident
            # edges, in canonical order
            scan = [(i,)] + [edge for edge in g.edges if i in edge]
            assert star(c, (i,)) == tuple(sorted(scan, key=c.index.__getitem__)), spec
            assert len(star(c, (i,))) == 1 + deg[i]
        for edge in c.simplices[c.v :]:
            # an edge is a maximal cell here, its star is just itself
            assert star(c, edge) == (edge,)


def test_sphere_chi_values():
    g = from_spec("path:4")
    c = build_complex(g)
    deg = degrees(g)
    for i in range(g.n):
        # in the refinement the sphere of a vertex is one point per incident edge
        assert sphere_chi(c, (i,)) == deg[i]
    for edge in c.simplices[c.v :]:
        # the sphere of an edge is its two endpoints
        assert sphere_chi(c, edge) == 2
    # their total is the trace of the signless Hodge operator
    total = sum(deg) + 2 * c.e
    assert total == 4 * c.e


def test_connection_graph_sizes():
    # the connection graph G' has a node per cell and is held as L - I
    b = bundle_for(from_spec("cycle:4"))
    assert b.size == 8
    # each vertex meets its 2 incident edges, each edge meets its neighbor
    # edges through shared endpoints: 8 vertex-edge + 4 edge-edge pairs
    assert (b.connection.entry_sum() - b.size) // 2 == 12


def test_stirling_map_doubles_f_vector_like_refinement():
    # refinement maps the f-vector (v, e) to (v + e, 2e)
    refined = build_complex(barycentric_refinement(from_spec("cycle:6")))
    assert (refined.v, refined.e) == (12, 12)
