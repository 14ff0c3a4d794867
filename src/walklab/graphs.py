"""Construction and structural analysis of simple undirected graphs.

Everything downstream (chains, spectra, hitting solves) consumes the
immutable :class:`Graph` built here.  Alongside the standard builders
(named families, random regular via the pairing model, edge-list files)
this module computes girth, ball/sphere decompositions with their tree
excess, simple-cycle counts inside balls, and the distance-k graph.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

INFINITE_GIRTH = math.inf

# Enumeration budget for exact simple-cycle counts inside a ball.  Beyond
# this we only report the 2^rank - 1 cycle-space bound.
CYCLE_EDGE_BUDGET = 64
CYCLE_RANK_BUDGET = 20


class GraphError(ValueError):
    pass


class GraphFileError(GraphError):
    """Raised on malformed edge-list files; carries the offending line."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class DegreeProfile:
    min_degree: int
    max_degree: int
    is_regular: bool


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` is a lexicographically sorted tuple of (u, v) pairs with
    u < v; ``adjacency`` is a tuple of sorted neighbor tuples.  Instances
    are safe to share across threads.
    """

    n: int
    edges: tuple
    adjacency: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    @property
    def degree_profile(self) -> DegreeProfile:
        return self._cached("_degree_profile_cache", self._build_degree_profile)

    def _build_degree_profile(self) -> DegreeProfile:
        if self.n == 0:
            return DegreeProfile(0, 0, True)
        degs = [len(a) for a in self.adjacency]
        lo, hi = min(degs), max(degs)
        return DegreeProfile(lo, hi, lo == hi)

    @property
    def is_regular(self) -> bool:
        return self.degree_profile.is_regular

    @property
    def regular_degree(self) -> int:
        prof = self.degree_profile
        if not prof.is_regular:
            raise GraphError("graph is not regular")
        return prof.max_degree

    @property
    def csr(self) -> tuple:
        """Read-only int64 ``(indptr, indices)``; row v lists adjacency[v]."""
        return self._cached("_csr_cache", self._build_csr)

    def _build_csr(self) -> tuple:
        degs = np.fromiter(map(len, self.adjacency), dtype=np.int64,
                           count=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(self.adjacency),
                              dtype=np.int64, count=int(indptr[-1]))
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

    def expand(self, vertices) -> tuple:
        """``(slot, neighbor)`` arrays listing every neighbor of every
        ``vertices[slot]``, slot by slot in adjacency order."""
        indptr, indices = self.csr
        vertices = np.asarray(vertices, dtype=np.int64)
        degs = indptr[vertices + 1] - indptr[vertices]
        slot = np.repeat(np.arange(len(vertices)), degs)
        within = np.arange(len(slot)) - np.repeat(np.cumsum(degs) - degs, degs)
        return slot, indices[indptr[vertices][slot] + within]

    def neighbor_table(self) -> np.ndarray:
        """n x d array whose row v is adjacency[v]; regular graphs only."""
        return self.csr[1].reshape(self.n, self.regular_degree)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._cached("_edge_set_cache",
                                      lambda: frozenset(self.edges))

    def _cached(self, name: str, build):
        """Per-instance memo for derived data; the graph itself is frozen."""
        value = self.__dict__.get(name)
        if value is None:
            value = build()
            object.__setattr__(self, name, value)
        return value

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        kind = self.provenance.get("kind", "graph")
        return f"Graph(n={self.n}, m={self.m}, kind={kind!r})"


def make_graph(n: int, edges, provenance=None) -> Graph:
    """Validate an edge list and build a :class:`Graph`.

    Rejects self-loops, parallel edges, and out-of-range endpoints.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    norm = []
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"parallel edge ({u},{v})")
        seen.add((u, v))
        norm.append((u, v))
    norm.sort()
    adj = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    return Graph(n=n, edges=tuple(norm), adjacency=adjacency,
                 provenance=dict(provenance or {}))


# ---------------------------------------------------------------------------
# named families


def build_named(name: str, *params) -> Graph:
    """Build a standard small graph: complete, cycle, hypercube, petersen, prism."""
    builders = {
        "complete": _complete,
        "cycle": _cycle,
        "hypercube": _hypercube,
        "petersen": _petersen,
        "prism": _prism,
    }
    if name not in builders:
        raise GraphError(f"unknown graph name {name!r}; "
                         f"expected one of {sorted(builders)}")
    return builders[name](*params)


def _complete(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"complete graph needs n >= 2, got {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, edges, {"kind": "named", "name": "complete", "n": n})


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return make_graph(n, edges, {"kind": "named", "name": "cycle", "n": n})


def _hypercube(dim: int) -> Graph:
    if dim < 1:
        raise GraphError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(dim)
             if x < (x ^ (1 << b))]
    return make_graph(n, edges, {"kind": "named", "name": "hypercube", "dim": dim})


def _petersen() -> Graph:
    # outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return make_graph(10, edges, {"kind": "named", "name": "petersen"})


def _prism() -> Graph:
    # two triangles 0,1,2 and 3,4,5 joined by vertical edges
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
             (0, 3), (1, 4), (2, 5)]
    return make_graph(6, edges, {"kind": "named", "name": "prism"})


# ---------------------------------------------------------------------------
# random regular graphs (pairing model)


def build_random_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a simple d-regular graph by the pairing model.

    A uniformly random perfect matching on n*d half-edge stubs is drawn
    and rejected wholesale whenever it contains a loop or a parallel
    edge, so the result is uniform conditional on simplicity.  Sampling
    is deterministic given ``seed``.
    """
    if d < 2:
        raise GraphError(f"degree must be >= 2, got {d}")
    if d >= n:
        raise GraphError(f"degree {d} must be smaller than n={n}")
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d must be even, got n={n}, d={d}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    max_attempts = 10 * n
    stubs = np.repeat(np.arange(n), d)
    for attempt in range(1, max_attempts + 1):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(lo == hi):
            continue
        keys = lo.astype(np.int64) * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        edges = list(zip(lo.tolist(), hi.tolist()))
        return make_graph(
            n, edges,
            {"kind": "random-regular", "n": n, "d": d, "seed": int(seed),
             "attempts": attempt})
    raise GraphError(
        f"pairing model failed to produce a simple graph after "
        f"{max_attempts} attempts (n={n}, d={d}, seed={seed})")


def build_high_girth_regular(n: int, d: int, min_girth: int, seed: int,
                             max_swaps: int = 20000) -> Graph:
    """Random d-regular graph surgically rewired to have girth >= min_girth.

    Starts from the pairing model and repeatedly performs degree-preserving
    double-edge swaps that each remove one edge of a shortest short cycle.
    Deterministic given ``seed``.  Used to manufacture fixtures whose
    radius-k balls are trees (girth > 2k).
    """
    g = build_random_regular(n, d, seed)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=1))
    edge_set = set(g.edges)
    adj = [set(a) for a in g.adjacency]

    def find_short_cycle_edge():
        # BFS from every vertex to depth floor((min_girth-1+1)/2); the
        # minimum over all detections is exact, so any detection with
        # length < min_girth certifies a short cycle through that edge.
        depth_cap = min_girth // 2
        best = None
        for src in range(n):
            dist = {src: 0}
            parent = {src: -1}
            queue = deque([src])
            while queue:
                u = queue.popleft()
                if dist[u] >= depth_cap:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif w != parent[u]:
                        length = dist[u] + dist[w] + 1
                        if length < min_girth and (best is None or length < best[0]):
                            best = (length, (min(u, w), max(u, w)))
        return best

    swaps = 0
    while True:
        found = find_short_cycle_edge()
        if found is None:
            break
        _, (u, v) = found
        edge_list = sorted(edge_set)
        done = False
        for _ in range(500):
            x, y = edge_list[int(rng.integers(len(edge_list)))]
            if rng.integers(2):
                x, y = y, x
            if len({u, v, x, y}) != 4:
                continue
            if (min(u, x), max(u, x)) in edge_set or (min(v, y), max(v, y)) in edge_set:
                continue
            for a, b in [(u, v), (x, y)]:
                edge_set.remove((min(a, b), max(a, b)))
                adj[a].discard(b)
                adj[b].discard(a)
            for a, b in [(u, x), (v, y)]:
                edge_set.add((min(a, b), max(a, b)))
                adj[a].add(b)
                adj[b].add(a)
            done = True
            break
        if not done:
            raise GraphError("could not find a usable swap partner edge")
        swaps += 1
        if swaps > max_swaps:
            raise GraphError(
                f"girth surgery did not converge within {max_swaps} swaps "
                f"(n={n}, d={d}, min_girth={min_girth}, seed={seed})")
    return make_graph(
        n, sorted(edge_set),
        {"kind": "random-regular", "n": n, "d": d, "seed": int(seed),
         "min_girth": min_girth, "swaps": swaps})


# ---------------------------------------------------------------------------
# traversal helpers


def bfs_distances(g: Graph, source: int, cutoff=None) -> np.ndarray:
    """Distances from ``source``; unreachable vertices get -1."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cutoff is not None and du >= cutoff:
            continue
        for w in g.adjacency[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


@dataclass(frozen=True, eq=False)
class BallTable:
    """Radius-k balls around every vertex, for vectorized distance lookups.

    ``keys`` holds ``anchor * n + u`` for every u within distance k of
    anchor, sorted ascending; ``dist[i]`` is the distance of ``keys[i]``.
    """

    n: int
    k: int
    keys: np.ndarray
    dist: np.ndarray

    def distance(self, anchor, v) -> np.ndarray:
        """Elementwise dist(anchor, v), or -1 when v lies outside the ball."""
        pos, found = _sorted_lookup(
            self.keys, np.asarray(anchor, dtype=np.int64) * self.n + v)
        return np.where(found, self.dist[pos], -1)

    def sphere(self, anchor: int) -> np.ndarray:
        """Sorted vertices at distance exactly k from ``anchor``."""
        base = anchor * self.n
        lo, hi = np.searchsorted(self.keys, (base, base + self.n))
        return self.keys[lo:hi][self.dist[lo:hi] == self.k] - base


def _sorted_lookup(keys: np.ndarray, query):
    """``(pos, found)``: where each query would sit in the sorted ``keys``
    (clipped to a valid index) and whether it is there."""
    pos = np.minimum(np.searchsorted(keys, query), max(len(keys) - 1, 0))
    found = keys[pos] == query if len(keys) else np.zeros(np.shape(query), bool)
    return pos, found


def ball_table(g: Graph, k: int) -> BallTable:
    """The radius-k :class:`BallTable` of ``g``, built once per (graph, k)."""
    tables = g._cached("_ball_table_cache", dict)
    table = tables.get(k)
    if table is None:
        table = tables[k] = _build_ball_table(g, k)
    return table


def _build_ball_table(g: Graph, k: int) -> BallTable:
    # level-synchronous BFS from all anchors at once over (anchor, vertex)
    # pairs encoded as anchor * n + vertex
    if not 1 <= k <= np.iinfo(np.int8).max:
        raise GraphError(f"ball radius must lie in 1..127, got {k}")
    n = g.n
    anchors = vertices = np.arange(n, dtype=np.int64)
    levels = [anchors * (n + 1)]
    for _ in range(k):
        slot, nbr = g.expand(vertices)
        found = np.sort(anchors[slot] * n + nbr)
        found = found[np.diff(found, prepend=-1) != 0]
        # neighbors of level r-1 lie on levels r-2, r-1 or r
        for level in levels[-2:]:
            found = found[~_sorted_lookup(level, found)[1]]
        levels.append(found)
        anchors, vertices = np.divmod(found, n)
    keys = np.concatenate(levels)
    dist = np.repeat(np.arange(k + 1, dtype=np.int8),
                     [len(level) for level in levels])
    order = np.argsort(keys, kind="stable")
    keys, dist = keys[order], dist[order]
    keys.flags.writeable = False
    dist.flags.writeable = False
    return BallTable(n=n, k=k, keys=keys, dist=dist)


def connected_components(g: Graph) -> list:
    """List of components, each a sorted list of vertices."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def bipartition(g: Graph):
    """Two-coloring as a 0/1 array, or None if some component is odd."""
    color = np.full(g.n, -1, dtype=np.int8)
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def eccentricity(g: Graph, v: int) -> int:
    dist = bfs_distances(g, v)
    if np.any(dist < 0):
        return -1
    return int(dist.max())


def diameter(g: Graph) -> int:
    """Max eccentricity; -1 when disconnected."""
    worst = 0
    for v in range(g.n):
        e = eccentricity(g, v)
        if e < 0:
            return -1
        worst = max(worst, e)
    return worst


def girth(g: Graph):
    """Length of the shortest cycle, or an infinite sentinel for forests.

    BFS from every vertex; the first non-tree edge seen from each source
    gives a candidate cycle length, and the minimum over sources is exact.
    """
    best = INFINITE_GIRTH
    for src in range(g.n):
        dist = {src: 0}
        parent = {src: -1}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:
                continue
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    length = dist[u] + dist[w] + 1
                    if length < best:
                        best = length
    return best


# ---------------------------------------------------------------------------
# balls, tree excess, cycle counts


@dataclass(frozen=True)
class BallStats:
    """Structure of the radius-k ball around a center.

    ``edge_surplus`` counts edges with an endpoint inside radius k-1 minus the
    ball size; it equals -1 on tree balls, so ``excess = edge_surplus + 1`` is
    the normalized version that scores 0 there.  ``cycle_rank`` is the
    cycle rank of the absorption-relevant subgraph (edges incident to the
    interior) and always equals ``excess``; ``full_cycle_rank`` is the
    cycle rank of the whole induced ball, which also sees edges between
    two boundary vertices.  ``simple_cycle_count`` enumerates simple
    cycles of the induced ball exactly, or is None when the enumeration
    budget is exceeded.
    """

    center: int
    radius: int
    levels: tuple
    edge_surplus: int
    excess: int
    cycle_rank: int
    relevant_edge_count: int
    full_edge_count: int
    full_cycle_rank: int
    simple_cycle_count: object
    simple_cycle_bound: int

    @property
    def ball_size(self) -> int:
        return sum(self.levels)


def ball_stats(g: Graph, v: int, k: int,
               edge_budget: int = CYCLE_EDGE_BUDGET,
               rank_budget: int = CYCLE_RANK_BUDGET) -> BallStats:
    """Level sizes and cycle structure of the radius-k ball around v."""
    if k < 0:
        raise GraphError(f"radius must be >= 0, got {k}")
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    dist = bfs_distances(g, v, cutoff=k)
    levels = tuple(int(np.sum(dist == i)) for i in range(k + 1))
    ball = [int(u) for u in np.flatnonzero(dist >= 0)]
    ball_size = len(ball)
    in_ball = dist >= 0
    inner = (dist >= 0) & (dist <= k - 1)

    relevant = 0
    full = 0
    ball_edges = []
    for u, w in g.edges:
        if in_ball[u] and in_ball[w]:
            full += 1
            ball_edges.append((u, w))
            if inner[u] or inner[w]:
                relevant += 1

    edge_surplus = relevant - ball_size
    excess = edge_surplus + 1
    cycle_rank = relevant - (ball_size - 1)
    full_rank = full - ball_size + _component_count(ball, ball_edges)
    bound = (1 << full_rank) - 1 if full_rank >= 0 else 0
    if full <= edge_budget and full_rank <= rank_budget:
        count = count_simple_cycles(ball_edges)
    else:
        count = None
    return BallStats(center=v, radius=k, levels=levels, edge_surplus=edge_surplus,
                     excess=excess, cycle_rank=cycle_rank,
                     relevant_edge_count=relevant, full_edge_count=full,
                     full_cycle_rank=full_rank, simple_cycle_count=count,
                     simple_cycle_bound=bound)


def _component_count(vertices, edges) -> int:
    idx = {u: i for i, u in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, w in edges:
        ra, rb = find(idx[u]), find(idx[w])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(vertices))})


def count_simple_cycles(edges) -> int:
    """Exact number of simple cycles in the graph given by ``edges``.

    Enumerates the cycle space: every nonempty XOR of fundamental cycles
    is tested for being a single vertex-disjoint cycle.  Exponential in
    the cycle rank, so callers must budget.
    """
    edges = [tuple(e) for e in edges]
    if not edges:
        return 0
    vertices = sorted({u for e in edges for u in e})
    index = {e: i for i, e in enumerate(edges)}
    adj = {u: [] for u in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)

    # spanning forest for fundamental cycles
    parent_edge = {}
    visited = set()
    tree_edges = set()
    for root in vertices:
        if root in visited:
            continue
        visited.add(root)
        parent_edge[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in visited:
                    visited.add(w)
                    e = (min(u, w), max(u, w))
                    parent_edge[w] = (u, e)
                    tree_edges.add(e)
                    queue.append(w)

    def path_to_root(u):
        mask = 0
        while parent_edge[u] is not None:
            up, e = parent_edge[u]
            mask ^= 1 << index[e]
            u = up
        return mask

    basis = []
    for e in edges:
        if e not in tree_edges:
            u, w = e
            mask = path_to_root(u) ^ path_to_root(w) ^ (1 << index[e])
            basis.append(mask)

    rank = len(basis)
    if rank == 0:
        return 0
    endpoints = edges
    count = 0
    mask = 0
    # Gray-code walk over all nonempty subsets of the basis.
    for step in range(1, 1 << rank):
        mask ^= basis[(step & -step).bit_length() - 1]
        if mask == 0:
            continue
        deg = {}
        sel = mask
        n_edges = 0
        ok = True
        while sel:
            i = (sel & -sel).bit_length() - 1
            sel &= sel - 1
            u, w = endpoints[i]
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
            n_edges += 1
        for u, dcount in deg.items():
            if dcount != 2:
                ok = False
                break
        # a disjoint union of cycles has all degrees 2; a single cycle
        # additionally has #edges == #vertices and is connected
        if ok and n_edges == len(deg):
            start = next(iter(deg))
            seen = {start}
            queue = deque([start])
            sel = mask
            inc = {u: [] for u in deg}
            while sel:
                i = (sel & -sel).bit_length() - 1
                sel &= sel - 1
                u, w = endpoints[i]
                inc[u].append(w)
                inc[w].append(u)
            while queue:
                u = queue.popleft()
                for w in inc[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) == len(deg):
                count += 1
    return count


@dataclass(frozen=True)
class Assumption1Report:
    """Per-center ball statistics aggregated to maxima over all centers."""

    radius: int
    max_excess: int
    max_cycle_rank: int
    max_simple_cycle_bound: int
    max_simple_cycle_count: object
    all_counts_exact: bool


def assumption1_scan(g: Graph, r: int,
                     edge_budget: int = CYCLE_EDGE_BUDGET,
                     rank_budget: int = CYCLE_RANK_BUDGET) -> Assumption1Report:
    """Worst-case cycle content over all radius-r balls.

    ``max_cycle_rank`` and the simple-cycle figures refer to the full
    induced ball (the quantity whose uniform boundedness the machinery
    needs); ``max_excess`` is the absorption-relevant normalized excess.
    """
    max_excess = 0
    max_rank = 0
    max_bound = 0
    max_count = 0
    exact = True
    for v in range(g.n):
        stats = ball_stats(g, v, r, edge_budget, rank_budget)
        max_excess = max(max_excess, stats.excess)
        max_rank = max(max_rank, stats.full_cycle_rank)
        max_bound = max(max_bound, stats.simple_cycle_bound)
        if stats.simple_cycle_count is None:
            exact = False
        else:
            max_count = max(max_count, stats.simple_cycle_count)
    return Assumption1Report(
        radius=r, max_excess=max_excess, max_cycle_rank=max_rank,
        max_simple_cycle_bound=max_bound,
        max_simple_cycle_count=max_count if exact else None,
        all_counts_exact=exact)


# ---------------------------------------------------------------------------
# distance-k graph


def inflate(g: Graph, k: int) -> Graph:
    """Graph on the same vertices joining pairs at distance exactly k.

    May be disconnected or irregular; an empty edge set is allowed (with
    a warning).  inflate(g, 1) reproduces g's edge set.
    """
    if k < 1:
        raise GraphError(f"inflation distance must be >= 1, got {k}")
    table = ball_table(g, k)
    v, u = np.divmod(table.keys[table.dist == k], g.n)
    keep = v < u
    edges = list(zip(v[keep].tolist(), u[keep].tolist()))
    if not edges:
        warnings.warn(f"distance-{k} graph has no edges", stacklevel=2)
    prov = {"kind": "inflated", "k": k, "base": dict(g.provenance)}
    return make_graph(g.n, edges, prov)


# ---------------------------------------------------------------------------
# edge-list file I/O


def write_edge_list(g: Graph, path) -> None:
    """Write the plain-text format: first line "n m", then "u v" lines."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    """Parse the edge-list format; errors carry 1-based line numbers."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GraphFileError("empty file", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFileError(f"expected 'n m', got {lines[0]!r}", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFileError(f"expected two integers, got {lines[0]!r}", 1)
    edges = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFileError(f"expected 'u v', got {line!r}", i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFileError(f"expected two integers, got {line!r}", i)
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFileError(
            f"header declared {m} edges but file has {len(edges)}",
            len(lines))
    try:
        return make_graph(n, edges, {"kind": "file", "path": str(path)})
    except GraphError as exc:
        raise GraphFileError(str(exc)) from exc
