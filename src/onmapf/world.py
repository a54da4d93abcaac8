"""Environment representation: undirected graphs, 4-neighbor grids, shortest distances.

Graphs are immutable after construction and connectivity is verified up front,
so shortest-path queries never fail. Distance maps are computed per source on
demand and cached on the graph, each as a read-only ``array`` of the smallest
unsigned type that holds its farthest distance: one byte per vertex on any
graph of diameter below 256, against an 8-byte slot in a ``list``.

A map is labeled only as far as it is read: a request may name a vertex it
reads, and the map is then labeled out to that vertex's distance plus one
level. It is exact where labeled and reads 0 elsewhere; a labeled vertex
reads 0 only at the source. So a reader that reads 0 at any other vertex has
missed: it asks again for that vertex, and the map is labeled afresh from its
source out to the larger ball and published as a new array. (Resuming the
BFS where it stopped would reread the whole map anyway, and few maps miss
more than once.) A request without a vertex labels the whole map; a
complete map has the typecode a full BFS gives.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .errors import DisconnectedWorld, EmptyWorld, InvalidEdge, ParseError

BLOCKED_CHAR = "@"
FREE_CHAR = "."


@dataclass(frozen=True)
class Graph:
    """Connected undirected graph over vertices 0..vertex_count-1.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``. Instances are
    read-only after construction; the distance cache is the only mutable
    state, and it only grows. Its maps are compact unsigned arrays, shared by
    every caller, which only index them; growing a map publishes a new array
    and leaves the old one as it was.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    _dist_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # source -> radius within which its map is exact, for incomplete maps only
    _dist_radius: dict = field(default_factory=dict, repr=False, compare=False)

    def dist_from(self, source: int, *, reach: int | None = None) -> array:
        """BFS distance map from ``source``, memoized: ``dist_from(s)[v]`` is
        the distance from ``s`` to ``v`` wherever the map is labeled.

        Without ``reach`` the map is complete. With it, the map labels at
        least the vertices within d(source, reach) + 1: a walk from ``reach``
        toward ``source`` and the neighbors it looks at. The vertices it has
        not labeled read 0, so a reader that reads 0 at a vertex other than
        ``source`` calls again with ``reach`` set to that vertex.

        The map is an ``array`` of typecode ``'B'``, ``'H'`` or ``'L'``, the
        smallest that holds its largest entry (a complete map's farthest
        distance). It is shared, so callers must not modify it.
        """
        dist = self._dist_cache.get(source)
        if dist is not None:
            held = self._dist_radius.get(source)
            if held is None:  # complete
                return dist
            # a labeled ``reach`` reads nonzero or is the source
            if reach is not None and (reach == source or dist[reach]) and dist[reach] < held:
                return dist
        return self._grow(source, reach)

    def _grow(self, source: int, reach: int | None) -> array:
        """Label the map of ``source`` afresh on a list, one BFS level at a
        time, until ``reach`` is labeled and then one level more (without
        ``reach``, every level), and publish it as a compact array."""
        n = self.vertex_count
        labels = [0] * n
        labels[source] = -1  # nonzero while labeling: 0 means unlabeled
        frontier = [source]
        r, unlabeled = 0, n - 1
        # the last level to label: one past ``reach``'s once it is labeled,
        # every level (at most n) until then and without ``reach``
        pending = reach is not None and reach != source
        target = n if reach is None or pending else 1
        adjacency = self.adjacency
        while unlabeled and r < target:
            if not frontier:
                raise DisconnectedWorld("graph is not connected")
            r += 1
            level = []
            for v in frontier:
                for u in adjacency[v]:
                    if not labels[u]:
                        labels[u] = r
                        level.append(u)
            unlabeled -= len(level)
            frontier = level
            if pending and labels[reach]:
                pending, target = False, r + 1
        labels[source] = 0
        if unlabeled:
            self._dist_radius[source] = r
        else:
            self._dist_radius.pop(source, None)
        # every label is at most r: BFS labels vertices in order of distance
        if r < 256:
            dist = array("B", bytes(labels))
        else:
            dist = array("H" if r < 65536 else "L", labels)
        self._dist_cache[source] = dist
        return dist

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.vertex_count) for u in self.adjacency[v] if v < u]


def build_graph(vertex_count: int, edges) -> Graph:
    """Build a connected undirected graph from an edge list (read twice).

    Raises InvalidEdge for self-loops or out-of-range endpoints and
    DisconnectedWorld if the vertices do not form one component.
    """
    if vertex_count <= 0:
        raise EmptyWorld("graph needs at least one vertex")
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidEdge(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
    # One component needs vertex_count - 1 edges: a size header alone must not
    # allocate a set per declared vertex.
    if vertex_count > len(edges) + 1:
        raise DisconnectedWorld("graph is not connected")
    # One int object per vertex, shared by every adjacency tuple: parsed
    # edges hold a fresh int per token.
    ids = list(range(vertex_count))
    neighbor_sets = [set() for _ in ids]
    for u, v in edges:
        neighbor_sets[u].add(ids[v])
        neighbor_sets[v].add(ids[u])
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    graph = Graph(vertex_count, adjacency)
    graph.dist_from(0)  # raises DisconnectedWorld unless every vertex is reached
    return graph


@dataclass(frozen=True)
class GridMap:
    """A 4-neighbor grid with blocked cells; unblocked cells become graph vertices.

    Vertices are numbered row-major over unblocked cells, which fixes ids for
    reproducible tie-breaking.
    """

    height: int
    width: int
    blocked: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise EmptyWorld("grid dimensions must be positive")
        for (r, c) in self.blocked:
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise InvalidEdge(f"blocked cell ({r}, {c}) outside the grid")
        cells = tuple(
            (r, c)
            for r in range(self.height)
            for c in range(self.width)
            if (r, c) not in self.blocked
        )
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_index", {cell: i for i, cell in enumerate(cells)})

    def vertex_of(self, row: int, col: int) -> int:
        try:
            return self._index[(row, col)]
        except KeyError:
            raise InvalidEdge(f"cell ({row}, {col}) is blocked or outside the grid") from None

    def cell_of(self, vertex: int) -> tuple[int, int]:
        return self._cells[vertex]

    def to_graph(self) -> Graph:
        """One vertex per unblocked cell, edges between orthogonally adjacent
        unblocked cells."""
        if not self._cells:
            raise EmptyWorld("all grid cells are blocked")
        index = self._index
        edges = [
            (index[(r, c)], index[cell])
            for (r, c) in self._cells
            for cell in ((r + 1, c), (r, c + 1))
            if cell in index
        ]
        try:
            return build_graph(len(self._cells), edges)
        except DisconnectedWorld:
            raise DisconnectedWorld("unblocked cells are not connected") from None


def build_grid(height: int, width: int, blocked=()) -> Graph:
    """Graph of a height x width grid with the given cells blocked; see
    ``GridMap.to_graph``."""
    return GridMap(height, width, frozenset(blocked)).to_graph()


def shortest_dist(graph: Graph, s: int, t: int) -> int:
    """Unweighted shortest-path length between two vertices.

    Reads the target's distance map (graphs are undirected), the one the
    planners already keep for every goal, grown until it labels ``s``.
    """
    return graph.dist_from(t, reach=s)[s]


def shortest_path_lex(graph: Graph, s: int, t: int) -> tuple[int, ...]:
    """The lexicographically smallest shortest path from s to t.

    Greedy over the distance-to-target map: from each vertex pick the
    smallest-id neighbor that still decreases the distance. It reads the
    vertices within d(s, t) + 1 of ``t``, the ball ``reach=s`` labels.
    """
    dist_to_t = graph.dist_from(t, reach=s)
    path = [s]
    v = s
    while v != t:
        v = next(u for u in graph.adjacency[v] if dist_to_t[u] == dist_to_t[v] - 1)
        path.append(v)
    return tuple(path)


# ---------------------------------------------------------------------------
# text formats


def load_map(text: str, source: str = "<map>") -> GridMap:
    """Parse the grid map format: ``height H`` / ``width W`` / ``map`` / rows
    of ``.`` (free) and ``@`` (blocked)."""
    lines = text.splitlines()

    def expect(lineno, prefix):
        if lineno > len(lines):
            raise ParseError(f"missing '{prefix}' line", source, lineno)
        parts = lines[lineno - 1].split()
        if len(parts) != (2 if prefix != "map" else 1) or parts[0] != prefix:
            raise ParseError(f"expected '{prefix}' line", source, lineno)
        return parts

    height = _parse_int(expect(1, "height")[1], source, 1)
    width = _parse_int(expect(2, "width")[1], source, 2)
    expect(3, "map")
    if height < 1 or width < 1:
        raise ParseError("grid dimensions must be positive", source, 1)
    blocked = set()
    for r in range(height):
        lineno = 4 + r
        if lineno > len(lines):
            raise ParseError(f"missing map row {r}", source, lineno)
        row = lines[lineno - 1]
        if len(row) != width:
            raise ParseError(f"map row has length {len(row)}, expected {width}", source, lineno)
        for c, ch in enumerate(row):
            if ch == BLOCKED_CHAR:
                blocked.add((r, c))
            elif ch != FREE_CHAR:
                raise ParseError(f"unexpected map character {ch!r}", source, lineno)
    return GridMap(height, width, frozenset(blocked))


def dump_map(grid: GridMap) -> str:
    rows = [
        "".join(
            BLOCKED_CHAR if (r, c) in grid.blocked else FREE_CHAR for c in range(grid.width)
        )
        for r in range(grid.height)
    ]
    return "\n".join([f"height {grid.height}", f"width {grid.width}", "map"] + rows) + "\n"


def load_graph(text: str, source: str = "<graph>") -> Graph:
    """Parse the general graph format: ``vertices N`` then ``u v`` edge lines."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty graph file", source, 1)
    head = lines[0].split()
    if len(head) != 2 or head[0] != "vertices":
        raise ParseError("expected 'vertices N' header", source, 1)
    n = _parse_int(head[1], source, 1)
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'u v' edge line", source, lineno)
        edges.append((_parse_int(parts[0], source, lineno), _parse_int(parts[1], source, lineno)))
    return build_graph(n, edges)


def dump_graph(graph: Graph) -> str:
    lines = [f"vertices {graph.vertex_count}"]
    lines += [f"{u} {v}" for u, v in graph.edges()]
    return "\n".join(lines) + "\n"


def _parse_int(token: str, source: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", source, lineno) from None
