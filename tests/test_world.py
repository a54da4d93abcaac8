import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onmapf import (
    DisconnectedWorld,
    EmptyWorld,
    GridMap,
    InstanceSource,
    InvalidEdge,
    ParseError,
    RandomSpec,
    build_graph,
    build_grid,
    gen_random,
    opt_rational,
    run,
    shortest_dist,
    shortest_path_lex,
)
from onmapf.world import dump_graph, dump_map, load_graph, load_map

from references import random_connected_graph


def test_strip_grid_is_a_path_graph():
    m = 4
    g = build_grid(1, m + 1)
    assert g.vertex_count == m + 1
    assert g.adjacency[0] == (1,)
    assert g.adjacency[m] == (m - 1,)
    for v in range(1, m):
        assert g.adjacency[v] == (v - 1, v + 1)


def test_2x2_grid_is_a_four_cycle():
    g = build_grid(2, 2)
    assert g.vertex_count == 4
    assert all(len(g.adjacency[v]) == 2 for v in range(4))
    assert set(g.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_single_cell_grid():
    g = build_grid(1, 1)
    assert g.vertex_count == 1
    assert g.edge_count() == 0


def test_disconnected_grid_rejected():
    # a full column of blocks splits a 3x3 grid
    with pytest.raises(DisconnectedWorld, match="^unblocked cells are not connected$"):
        build_grid(3, 3, {(0, 1), (1, 1), (2, 1)})


def test_all_blocked_grid_rejected():
    with pytest.raises(EmptyWorld):
        build_grid(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})


def test_build_graph_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_build_graph_rejects_self_loop_and_range():
    with pytest.raises(InvalidEdge):
        build_graph(2, [(0, 0)])
    with pytest.raises(InvalidEdge):
        build_graph(2, [(0, 5)])
    with pytest.raises(DisconnectedWorld, match="^graph is not connected$"):
        build_graph(3, [(0, 1)])
    with pytest.raises(EmptyWorld, match="^graph needs at least one vertex$"):
        build_graph(0, [])


def test_grid_map_refuses_bad_dimensions_and_cells():
    for height, width in ((0, 3), (3, 0)):
        with pytest.raises(EmptyWorld, match="^grid dimensions must be positive$"):
            GridMap(height, width, frozenset())
    with pytest.raises(InvalidEdge, match=r"^blocked cell \(2, 0\) outside the grid$"):
        GridMap(2, 2, frozenset({(2, 0)}))


def test_graph_size_header_is_checked_before_allocating():
    # A million declared vertices and one edge cannot be connected, which is
    # known before a neighbor set is built per declared vertex.
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedWorld, match="^graph is not connected$"):
            load_graph("vertices 1000000\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    with pytest.raises(InvalidEdge):
        build_graph(1000000, [(0, 0)])  # a bad edge is still reported first


def test_loaded_graph_shares_one_int_per_vertex():
    # CPython caches no int above 256, so each parsed token is a fresh
    # object; every adjacency tuple must hold the same one per vertex.
    graph = load_graph(dump_graph(build_grid(20, 20)))
    owner = {}
    for neighbors in graph.adjacency:
        for u in neighbors:
            assert owner.setdefault(u, u) is u
    assert len(owner) == graph.vertex_count == 400


def test_shortest_dist_on_line_and_square():
    m = 7
    line = build_grid(1, m + 1)
    assert shortest_dist(line, 0, m) == m
    square = build_grid(2, 2)
    assert shortest_dist(square, 0, 3) == 2  # v1 to v4 takes two steps


def brute_force_dist(graph, s, t, max_len):
    """Independent oracle: expand all walks of bounded length."""
    frontier = {s}
    for steps in range(max_len + 1):
        if t in frontier:
            return steps
        frontier = {u for v in frontier for u in graph.adjacency[v]}
    return None


def test_shortest_dist_around_blocked_center():
    g = build_grid(3, 3, {(1, 1)})
    # corner-to-opposite-corner on the ring; oracle enumerates short walks
    corner, opposite = 0, g.vertex_count - 1
    assert brute_force_dist(g, corner, opposite, 6) == 4
    assert shortest_dist(g, corner, opposite) == 4


def test_distance_symmetry_and_triangle_inequality():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        n = g.vertex_count
        for _ in range(15):
            u, v, w = (rng.randrange(n) for _ in range(3))
            assert shortest_dist(g, u, v) == shortest_dist(g, v, u)
            assert shortest_dist(g, u, w) <= shortest_dist(g, u, v) + shortest_dist(g, v, w)
        assert all(shortest_dist(g, v, v) == 0 for v in range(n))


def test_shortest_dist_reads_the_goal_keyed_map():
    # The planners keep one distance map per goal; shortest_dist must reuse
    # it rather than cache a second map keyed on the start.
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        s, t = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
        g.dist_from(t)
        cached = set(g._dist_cache)
        assert shortest_dist(g, s, t) == reference_bfs(g, s)[t]
        assert set(g._dist_cache) == cached


def reference_bfs(graph, source):
    """Independent oracle: grow the reached set one distance layer at a time."""
    dist = {source: 0}
    layer = {source}
    steps = 0
    while layer:
        steps += 1
        layer = {u for v in layer for u in graph.adjacency[v] if u not in dist}
        for u in layer:
            dist[u] = steps
    return [dist.get(v, -1) for v in range(graph.vertex_count)]


def test_dist_from_matches_reference_bfs():
    rng = random.Random(23)
    graphs = [random_connected_graph(rng, rng.randint(1, 30)) for _ in range(30)]
    while len(graphs) < 60:
        height, width = rng.randint(1, 9), rng.randint(1, 9)
        blocked = {(r, c) for r in range(height) for c in range(width) if rng.random() < 0.25}
        try:
            graphs.append(build_grid(height, width, blocked))
        except (DisconnectedWorld, EmptyWorld):
            continue
    for g in graphs:
        for source in range(g.vertex_count):
            assert list(g.dist_from(source)) == reference_bfs(g, source)


@pytest.mark.parametrize("farthest, typecode", [(255, "B"), (256, "H"), (65_535, "H"),
                                                (65_536, "L")])
def test_dist_map_takes_the_smallest_unsigned_type(farthest, typecode):
    # a path graph whose far end is `farthest` steps from vertex 0
    g = build_graph(farthest + 1, [(v, v + 1) for v in range(farthest)])
    dist = g.dist_from(0)
    assert dist.typecode == typecode
    assert list(dist) == reference_bfs(g, 0)


def _seeded_graph(seed):
    """A random connected graph or a random grid with blocked cells, large
    enough that a map stops short of complete."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        return random_connected_graph(rng, rng.randint(1, 120))
    while True:
        height, width = rng.randint(1, 20), rng.randint(1, 20)
        blocked = {(r, c) for r in range(height) for c in range(width) if rng.random() < 0.2}
        try:
            return build_grid(height, width, blocked)
        except (DisconnectedWorld, EmptyWorld):
            continue


def assert_exact_within(dist, reference, radius):
    """Exact at every vertex within ``radius`` of the source; 0 or exact beyond."""
    for v, d in enumerate(reference):
        assert dist[v] == d if d <= radius else dist[v] in (0, d)


# (source, reach or None) draws, reduced modulo the graph's size
requests = st.lists(st.tuples(st.integers(0, 999), st.none() | st.integers(0, 999)),
                    max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), requests)
def test_resumed_maps_are_exact_within_their_radius(seed, draws):
    g = _seeded_graph(seed)
    n = g.vertex_count
    references = {}
    granted = []  # every map returned, with the radius it was asked for
    for source, reach in draws:
        source %= n
        if reach is None:
            continue  # a full request; all of them come last
        reach %= n
        reference = references.setdefault(source, reference_bfs(g, source))
        dist = g.dist_from(source, reach=reach)
        asked = reference[reach] + 1
        assert_exact_within(dist, reference, asked)
        granted.append((dist, reference, asked))
    # a map grown later is a new array: the ones handed out stay exact
    for dist, reference, asked in granted:
        assert_exact_within(dist, reference, asked)
    for source in range(n):
        dist = g.dist_from(source)
        assert dist.count(0) == 1  # complete: only the source reads 0
        assert list(dist) == reference_bfs(g, source)
        assert dist.typecode == "B"


@pytest.mark.parametrize("farthest, typecode", [(255, "B"), (256, "H"), (65_535, "H"),
                                                (65_536, "L")])
def test_grown_map_ends_with_the_smallest_unsigned_type(farthest, typecode):
    # A path graph grown from its far end (vertex 0's map is complete at
    # construction) in two partial steps, then in full.
    g = build_graph(farthest + 1, [(v, v + 1) for v in range(farthest)])
    g.dist_from(farthest, reach=farthest - 99)  # the vertices within 100 steps
    half = g.dist_from(farthest, reach=farthest // 2)
    assert half.count(0) > 1  # incomplete: unlabeled vertices read 0
    assert_exact_within(half, reference_bfs(g, farthest), farthest - farthest // 2 + 1)
    dist = g.dist_from(farthest)
    assert dist.typecode == typecode
    assert list(dist) == reference_bfs(g, farthest)


def test_small_map_asked_with_reach_stops_one_level_past_it():
    # However small the graph, a map asked for a vertex is labeled one level
    # past that vertex's distance and no further: the rest reads 0 until a
    # read miss asks for more.
    g = build_graph(10, [(v, v + 1) for v in range(9)])
    assert list(g.dist_from(9, reach=7)) == [0] * 6 + [3, 2, 1, 0]
    grown = g.dist_from(9, reach=4)
    assert list(grown) == [0] * 3 + [6, 5, 4, 3, 2, 1, 0]
    assert g.dist_from(9, reach=5) is grown  # labeled within its radius
    assert list(g.dist_from(9)) == list(range(9, -1, -1))


def test_grid_run_keeps_one_byte_maps():
    # a 32x32 grid has diameter well below 256, so every map the planners
    # cache during a run is one byte per vertex
    inst = gen_random(RandomSpec(32, 32, 0.1, 200, 400, seed=3))
    run(InstanceSource(inst), opt_rational("new-single", "flowtime"))
    cache = inst.graph._dist_cache
    assert len(cache) > 100
    assert all(dist.itemsize == 1 for dist in cache.values())


def test_grid_run_labels_only_part_of_its_maps():
    # The planners grow each goal's map only as far as their searches read
    # it: on this run about 56 % of the vertices of its maps are labeled.
    inst = gen_random(RandomSpec(32, 32, 0.1, 200, 400, seed=3))
    run(InstanceSource(inst), opt_rational("new-single", "flowtime"))
    g = inst.graph
    n = g.vertex_count
    cache = g._dist_cache
    # a map labels its source (0) and every vertex that reads nonzero
    labeled = sum(n - dist.count(0) + 1 for dist in cache.values())
    assert len(cache) > 100
    assert labeled < 0.6 * n * len(cache)


def test_open_grid_distance_is_manhattan():
    rng = random.Random(3)
    grid = GridMap(5, 6, frozenset())
    g = grid.to_graph()
    for _ in range(30):
        a = (rng.randrange(5), rng.randrange(6))
        b = (rng.randrange(5), rng.randrange(6))
        manhattan = abs(a[0] - b[0]) + abs(a[1] - b[1])
        assert shortest_dist(g, grid.vertex_of(*a), grid.vertex_of(*b)) == manhattan


def test_shortest_path_lex_prefers_smaller_ids():
    g = build_grid(2, 2)
    assert shortest_path_lex(g, 0, 3) == (0, 1, 3)
    assert shortest_path_lex(g, 3, 0) == (3, 1, 0)


def test_map_roundtrip_and_errors():
    grid = GridMap(2, 3, frozenset({(0, 1)}))
    text = dump_map(grid)
    assert load_map(text) == grid
    with pytest.raises(ParseError):
        load_map("height 2\nwidth 3\nmap\n..\n...")  # short row
    with pytest.raises(ParseError):
        load_map("h 2\nwidth 3\nmap\n...\n...")
    with pytest.raises(ParseError):
        load_map("height 2\nwidth 3\nmap\n..x\n...")
    for text, message in (
        ("height 2\nwidth 3\n", "<map>:3: missing 'map' line"),
        ("height 0\nwidth 3\nmap\n", "<map>:1: grid dimensions must be positive"),
        ("height 2\nwidth 3\nmap\n...", "<map>:5: missing map row 1"),
        ("height 1\nwidth 3\nmap\n...\n@@@\nxyz\n", "<map>:5: text after the last map row"),
        ("height 1\nwidth 3\nmap\n...\n\n  x\n", "<map>:6: text after the last map row"),
    ):
        with pytest.raises(ParseError) as excinfo:
            load_map(text)
        assert str(excinfo.value) == message
    # trailing blank lines are not rows
    assert load_map("height 1\nwidth 3\nmap\n..@\n\n \t\n") == GridMap(1, 3, frozenset({(0, 2)}))


def test_graph_roundtrip_and_errors():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert load_graph(dump_graph(g)).adjacency == g.adjacency
    with pytest.raises(ParseError):
        load_graph("vertices two\n0 1")
    with pytest.raises(ParseError):
        load_graph("vertices 2\n0 1 2")
    for text, message in (("", "<graph>:1: empty graph file"),
                          ("edges 2\n0 1\n", "<graph>:1: expected 'vertices N' header")):
        with pytest.raises(ParseError) as excinfo:
            load_graph(text)
        assert str(excinfo.value) == message


def test_graph_format_skips_comments_and_blank_lines():
    text = "vertices 3\n# a path\n\n0 1\n   \n  # indented comment\n1 2\n"
    assert load_graph(text).adjacency == ((1,), (0, 2), (1,))
    # skipped lines still count toward the line number of an error
    with pytest.raises(ParseError, match="^<graph>:5: expected 'u v' edge line$"):
        load_graph("vertices 3\n# two edges\n\n0 1\n1\n")
