"""Generator families, spec parsing, and file round trips."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import connlab.graphs as graphs
from connlab.graphs import (
    _FAMILIES,
    Graph,
    GraphError,
    barycentric_refinement,
    connected_components,
    diameter,
    from_spec,
    generate,
    gnm_random_graph,
    gnp_random_graph,
    induced_subgraph,
    load_graph,
    parse_graph_text,
    save_graph,
)
from oracles import diameter_bfs, is_connected


@pytest.mark.parametrize(
    "spec, v, e",
    [
        ("cycle:5", 5, 5),
        ("path:5", 5, 4),
        ("star:6", 7, 6),
        ("wheel:5", 6, 10),
        ("complete:5", 5, 10),
        ("complete_bipartite:3,4", 7, 12),
        ("complete_bipartite:2,3", 5, 6),
        ("grid:3,4", 12, 17),
        ("petersen:5,2", 10, 15),
        ("figure8", 7, 8),
    ],
)
def test_family_sizes(spec, v, e):
    g = from_spec(spec)
    assert g.n == v
    assert g.e == e


def test_edges_are_canonical():
    g = from_spec("wheel:6")
    assert g.edges == tuple(sorted(g.edges))
    assert all(a < b for a, b in g.edges)
    assert len(set(g.edges)) == len(g.edges)


def test_petersen_rejects_degenerate_skip():
    # a skip that is a multiple of the ring length would create self-loops
    with pytest.raises(GraphError):
        generate("petersen", 6, 6)


def test_unknown_family_rejected():
    with pytest.raises(GraphError):
        generate("dodecahedron")
    with pytest.raises(GraphError):
        from_spec("cycle")  # missing the size parameter
    with pytest.raises(GraphError):
        from_spec("cb:2,3")  # the family is complete_bipartite:A,B
    with pytest.raises(GraphError):
        from_spec("cycle:x")
    with pytest.raises(GraphError):
        from_spec("gnm:5,3:seed=x")


@pytest.mark.parametrize(
    "spec, value",
    [("cycle:4.5", "cycle parameter 4.5"), ("grid:2.9,3", "grid parameter 2.9"),
     ("gnm:10.7,5:seed=1", "gnm parameter 10.7"), ("bary:cycle:4.5", "cycle parameter 4.5"),
     ("gnp:6.5,0.5:seed=1", "gnp parameter 6.5")],
)
def test_integer_families_reject_fractional_parameters(spec, value):
    # no parameter is truncated to an integer; gnp's probability alone may
    # be fractional, and an integral float names the same graph as the int
    with pytest.raises(GraphError, match=f"^{value} is not an integer$"):
        from_spec(spec)


def test_integral_float_parameters_build_the_integer_graph():
    assert from_spec("cycle:4.0").edges == from_spec("cycle:4").edges
    assert from_spec("cycle:4e0").edges == from_spec("cycle:4").edges
    assert from_spec("grid:2.0,3").edges == from_spec("grid:2,3").edges
    assert from_spec("gnp:6,0.5:seed=1").edges == from_spec("gnp:6.0,0.5:seed=1").edges


def test_readme_spec_families_exist():
    # every family the README lists must be one from_spec knows
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("Spec families:", 1)[1].split("```")[1]
    families = {token.split(":")[0] for token in block.split()}
    assert "complete_bipartite" in families
    assert families <= set(_FAMILIES) | {"bary", "gnm", "gnp"}


def test_barycentric_counts():
    g = from_spec("cycle:6")
    r = barycentric_refinement(g)
    assert r.n == g.n + g.e
    assert r.e == 2 * g.e
    rr = barycentric_refinement(r)
    assert rr.n == r.n + r.e
    assert rr.e == 2 * r.e


def test_bary_spec_prefix():
    assert from_spec("bary:cycle:6").edges == barycentric_refinement(from_spec("cycle:6")).edges


def test_diameter_matches_repeated_bfs_on_corpus(corpus):
    # the bit-parallel BFS against one BFS per source; a disconnected graph
    # raises the same error from both and is compared component by component
    disconnected = 0
    for spec, b in corpus.items():
        g = b.graph
        if is_connected(g):
            assert diameter(g) == diameter_bfs(g), spec
            continue
        disconnected += 1
        for route in (diameter, diameter_bfs):
            with pytest.raises(GraphError, match="^diameter of a disconnected graph is infinite$"):
                route(g)
        for comp in connected_components(g):
            part = induced_subgraph(g, comp)
            assert diameter(part) == diameter_bfs(part), (spec, comp)
    assert disconnected > 0


@pytest.mark.parametrize(
    "g, expected",
    [
        (Graph(1), 0),
        (from_spec("path:2"), 1),
        (from_spec("path:7"), 6),
        (from_spec("complete:2"), 1),
        (from_spec("complete:8"), 1),
        (from_spec("cycle:9"), 4),
        (from_spec("bary:grid:20,20"), 76),
    ],
)
def test_diameter_edge_cases(g, expected):
    assert diameter(g) == diameter_bfs(g) == expected


def test_gnm_exact_edge_count_and_determinism():
    a = gnm_random_graph(20, 50, seed=7)
    b = gnm_random_graph(20, 50, seed=7)
    c = gnm_random_graph(20, 50, seed=8)
    assert len(a.edges) == 50
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_gnp_determinism():
    a = gnp_random_graph(20, 0.1, seed=3)
    b = gnp_random_graph(20, 0.1, seed=3)
    assert a.edges == b.edges
    assert all(0 <= x < y < 20 for x, y in a.edges)


def test_spec_seed_suffix():
    assert from_spec("gnm:20,50:seed=7").edges == gnm_random_graph(20, 50, 7).edges


def test_self_loop_and_duplicate_rejected():
    with pytest.raises(GraphError):
        Graph(3, ((1, 1),))
    with pytest.raises(GraphError):
        Graph(3, ((0, 1), (1, 0)))


def test_save_load_round_trip(tmp_path):
    # labels are compacted on load in first-appearance order; the returned
    # mapping makes the round trip exact
    g = from_spec("figure8")
    path = str(tmp_path / "g.txt")
    save_graph(g, path)
    h, mapping = load_graph(path)
    relabeled = tuple(sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges))
    assert h.n == g.n
    assert h.edges == relabeled


@pytest.mark.parametrize("header", ["abc", "", "1e3", "0x10"])
def test_bad_vertex_count_header_is_a_graph_error(header):
    with pytest.raises(GraphError, match="line 2: vertex count is not an integer"):
        parse_graph_text(f"# name: g\n# vertices: {header}\n0 1\n")
    graph, _ = parse_graph_text("# vertices: 5\n0 1\n")
    assert (graph.n, graph.edges) == (5, ((0, 1),))


# Fuzzing the two parsers: whatever the text, the only exception they raise
# is GraphError.  Numbers stay at most 64 so that no generator allocates
# more than a few thousand vertices.
_small = st.integers(min_value=-3, max_value=64)
_number = st.one_of(
    _small.map(str),
    st.floats(min_value=-3, max_value=64, allow_nan=False).map(repr),
    st.sampled_from(["", "x", "nan", "inf", "1e3", "2.", ".5", "0x4", "1_0", " 3", "-0", "1.0e999", "-1.0e999"]),
)
_family = st.sampled_from(sorted(_FAMILIES) + ["gnm", "gnp", "nosuch", ""])


@st.composite
def _specs(draw):
    params = ",".join(draw(st.lists(_number, max_size=3)))
    parts = [draw(_family)] + ([params] if draw(st.booleans()) else [])
    if draw(st.booleans()):
        parts.append("seed=" + draw(_number))
    prefix = "bary:" * draw(st.integers(min_value=0, max_value=2))
    return prefix + ":".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_specs(), st.text(max_size=30)))
def test_from_spec_raises_only_graph_error(spec):
    try:
        from_spec(spec)
    except GraphError:
        pass


def test_exponent_parameters_read_as_floats():
    # int is tried first, then float, whatever the token's spelling
    assert from_spec("gnp:10,1e-1:seed=1").edges == from_spec("gnp:10,0.1:seed=1").edges
    assert from_spec("cycle:4E0").edges == from_spec("cycle:4").edges
    with pytest.raises(GraphError, match="^cycle parameter 4.5 is not an integer$"):
        from_spec("cycle:45e-1")
    with pytest.raises(GraphError, match="not finite"):
        from_spec("cycle:nan")


@pytest.mark.parametrize("spec", ["cycle:1.0e999", "cycle:1e999", "grid:2,-1.0e999", "gnm:1.0e999,2:seed=1"])
def test_infinite_spec_parameter_is_a_graph_error(spec):
    # int(float("1.0e999")) raised OverflowError
    with pytest.raises(GraphError, match="not finite"):
        from_spec(spec)


@pytest.mark.parametrize(
    "spec, family",
    [("complete:99999999999", "complete"), ("bary:grid:100000,100000", "grid"), ("complete:1414", "complete")],
)
def test_oversized_spec_is_rejected_before_building(monkeypatch, spec, family):
    def build(*params):
        raise AssertionError(f"{family}{params} was built")

    monkeypatch.setitem(graphs._FAMILIES, family, (build, graphs._FAMILIES[family][1]))
    with pytest.raises(GraphError, match=f"^spec '{spec}' has .* cells, above the cap of {graphs.MAX_SPEC_CELLS}$"):
        from_spec(spec)


def test_spec_cap_keeps_the_large_barycentric_grid():
    assert graphs.MAX_SPEC_CELLS >= 10**6
    g = from_spec("bary:grid:60,60")
    assert g.n + g.e == 24840
    # complete:1414 has 1000405 cells, just above the cap; 1413 is just below
    assert from_spec("complete:1413").e == 1413 * 1412 // 2


def test_oversized_graph_text_is_rejected():
    cap = graphs.MAX_SPEC_CELLS
    for header, edges in ((99999999999, 1), (cap, 1), (cap - 1, 2)):
        text = f"# vertices: {header}\n" + "".join(f"0 {k + 1}\n" for k in range(edges))
        with pytest.raises(GraphError, match=f"^graph has {header + edges} cells, above the cap of {cap}$"):
            parse_graph_text(text)
    graph, _ = parse_graph_text(f"# vertices: {cap - 1}\n0 1\n")
    assert graph.n + graph.e == cap


_line = st.one_of(
    st.tuples(_number, _number).map(" ".join),
    _number.map(lambda x: f"# vertices: {x}"),
    _number.map(lambda x: f"# name: {x}"),
    st.text(alphabet="0123456789 -#:xv\t", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, max_size=8), st.text(max_size=20))
def test_parse_graph_text_raises_only_graph_error(lines, noise):
    for text in ("\n".join(lines), "\n".join(lines + [noise])):
        try:
            parse_graph_text(text)
        except GraphError:
            pass
