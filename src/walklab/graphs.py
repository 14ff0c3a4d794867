"""Construction and structural analysis of simple undirected graphs.

Everything downstream (chains, spectra, hitting solves) consumes the
immutable :class:`Graph` built here.  Alongside the standard builders
(named families, random regular via the pairing model, edge-list files)
this module computes girth, radius-k ball tables, the tree excess and
simple-cycle counts of balls, and the distance-k graph.

Every ball comes from one builder, :func:`_ball_keys`, a level-synchronous
BFS from many anchors at once: the :class:`BallTable` and
:func:`assumption1_scan` read it (on a certified graph the table moves
vertex 0's ball to every vertex).  The scan is the one measure of cycles
in balls, their tree excess, cycle rank and simple-cycle count, each off
one :func:`_ball_edges` lookup per batch (the sphere-hit solve counts the
excess off its own moves), and :func:`_ball_batches` is the one rule
that cuts many balls into batches within the chunk budget
``FAMILY_CHUNK_ROWS``, as :func:`row_chunks` cuts the rows of a sparse
matrix.  Only this module reads a ball table's keys.

Builders of Cayley graphs attach automorphism generators;
:func:`vertex_transitive` checks them once, and on a certified graph a
graph-wide scan visits vertex 0 alone.  :func:`cyclic_automorphism`
picks the certified array with the longest uniform cycles, along which
the exact spectrum splits into blocks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

INFINITE_GIRTH = math.inf

# Largest cycle rank of a ball whose simple cycles are counted exactly;
# past it only the 2^rank - 1 cycle-space bound is reported.
CYCLE_RANK_BUDGET = 20
MAX_GIRTH_SWAPS = 20_000       # see build_high_girth_regular
MAX_BALL_RADIUS = int(np.iinfo(np.int8).max)  # BallTable distances are int8
# The chunk budget: rows of a chunk of chains._family_blocks, and 16 of it
# the entries of a slot map there and of a batch's neighbor lookups here
# (see _ball_batches); the stored entries of a chunk of a sparse matrix
# read row by row (see row_chunks).  Every reader reads it through this
# module.
FAMILY_CHUNK_ROWS = 16_384


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
    """Immutable simple undirected graph, stored as CSR arrays.

    ``indptr`` and ``indices`` are read-only int64 arrays; row v lists v's
    neighbors in ascending order.  ``edges`` (lexicographically sorted
    (u, v) pairs with u < v) and ``adjacency`` (sorted neighbor tuples)
    are derived on demand and hold Python ints.  ``automorphisms`` holds
    read-only int64 arrays that a builder claims are automorphisms (vertex
    v goes to ``perm[v]``); nothing trusts them until
    :func:`vertex_transitive` has checked them.  Build instances with
    :func:`make_graph`; they are safe to share across threads.

    Beside its arrays a graph keeps what it computes once: its classes,
    its certificate and its ball tables.  The unit-weight float matrix
    that csgraph reads, :attr:`_matrix`, is built afresh by each reader
    and never kept, so a graph holds no float copy of its adjacency.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    provenance: dict = field(default_factory=dict)
    automorphisms: tuple = ()

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @cached_property
    def edges(self) -> tuple:
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows < self.indices
        return tuple(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    @cached_property
    def adjacency(self) -> tuple:
        ptr, nbrs = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(nbrs[ptr[v]:ptr[v + 1]]) for v in range(self.n))

    @cached_property
    def degree_profile(self) -> DegreeProfile:
        if self.n == 0:
            return DegreeProfile(0, 0, True)
        degs = np.diff(self.indptr)
        lo, hi = int(degs.min()), int(degs.max())
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

    def expand(self, vertices) -> tuple:
        """``(slot, neighbor)`` arrays listing every neighbor of every
        ``vertices[slot]``, slot by slot in adjacency order."""
        return _expand(self.indptr, self.indices, vertices)

    def bfs_prefixes(self, seeds, mass, limit):
        """The breadth-first orders from many seeds at once, each as far as
        it is asked for.

        Each order is FIFO with neighbors in adjacency order, as
        :func:`_bfs_levels` gives it: level r + 1 lists the unseen
        neighbors of level r by (the discovery rank of a neighbor's first
        parent on level r, its slot in that parent's row).  Each order
        ends with the first level at whose end the running sum of ``mass``
        exceeds ``limit``, or with its seed's component.

        Yields ``(lo, owner, order, level, total)`` per batch of
        consecutive seeds from ``seeds[lo]`` on: entry j is vertex
        ``order[j]`` at distance ``level[j]`` from seed ``lo + owner[j]``,
        seed after seed in BFS order, and ``total[j]`` is the sum of
        ``mass`` over that seed's order up to entry j, added left to right
        as ``np.cumsum`` adds it.

        Each level is built for the whole batch in one pass: its
        candidates are the (seed, neighbor) keys of the level before,
        those already seen are dropped by one gather in the batch's
        seen-map of (seed, vertex) flags, and the first occurrence of each
        remaining key, in discovery order, joins the new level.  Before
        its last level a seed holds at most p = F + 1 vertices, F the most
        of the smallest masses that fit ``limit``, so at most (degree + 1) p
        entries in all, of four 8-byte words each (owner, rank, vertex,
        running mass), and a seen-map row of n flags.
        :func:`_ball_batches` cuts the seeds into batches of at most 16
        ``FAMILY_CHUNK_ROWS`` such words: nothing has seeds x n entries.
        """
        n = self.n
        seeds = np.asarray(seeds, dtype=np.int64)
        bad = seeds[(seeds < 0) | (seeds >= n)]
        if len(bad):
            _check_vertex(n, int(bad[0]))
        mass = np.asarray(mass, dtype=float)
        fit = int(np.searchsorted(np.cumsum(np.sort(mass)), limit, "right"))
        degree = int(np.diff(self.indptr).max(initial=0))
        need = min(n, fit + 1)
        cuts = _ball_batches(
            np.full(len(seeds), 4 * (degree + 1) * need + n // 8), 1)
        for lo, hi in itertools.pairwise(cuts):
            k = hi - lo
            owner = np.arange(k)
            vertex = seeds[lo:hi]
            seen = np.zeros(k * n, dtype=bool)
            seen[owner * n + vertex] = True
            carry = np.zeros(k)
            held = np.zeros(k, dtype=np.int64)
            levels = []             # (owner, rank in its order, vertex, total)
            while len(owner):
                size = np.bincount(owner, minlength=k)
                rank = np.arange(len(owner)) - (np.cumsum(size) - size)[owner]
                # each seed's running mass, left to right from its carry: a
                # padded row per seed, so no sum crosses two seeds
                width = 1 + int(size.max())
                cell = owner * width + rank + 1
                sums = np.zeros(k * width)
                sums[::width] = carry
                sums[cell] = mass[vertex]
                np.cumsum(sums.reshape(k, width), axis=1,
                          out=sums.reshape(k, width))
                carry = sums[width - 1::width]
                levels.append((owner, held[owner] + rank, vertex, sums[cell]))
                held += size
                grow = (carry <= limit)[owner]
                slot, vertex = _expand(self.indptr, self.indices, vertex[grow])
                owner = owner[grow][slot]
                keys = owner * n + vertex
                fresh = ~seen[keys]
                keys, owner, vertex = keys[fresh], owner[fresh], vertex[fresh]
                # first occurrences in discovery order: (key, index) pairs
                # sort by key, and each key's run starts at its least index
                shift = int(len(keys)).bit_length()
                pairs = np.sort((keys << shift) | np.arange(len(keys)))
                first = np.zeros(len(keys), dtype=bool)
                first[pairs[np.diff(pairs >> shift, prepend=-1) != 0]
                      & ((1 << shift) - 1)] = True
                keys, owner, vertex = keys[first], owner[first], vertex[first]
                seen[keys] = True
            # seed after seed: a level's entries follow the seed's earlier ones
            start = np.cumsum(held) - held
            order = np.empty(int(held.sum()), dtype=np.int64)
            dist = np.empty(len(order), dtype=np.int32)
            total = np.empty(len(order))
            for r, (owner, rank, vertex, sums) in enumerate(levels):
                at = start[owner] + rank
                order[at], dist[at], total[at] = vertex, r, sums
            yield lo, np.repeat(np.arange(k), held), order, dist, total

    @property
    def _matrix(self) -> sp.csr_matrix:
        """A fresh unit-weight adjacency matrix on the CSR arrays, for
        csgraph: 8 bytes of weight and 4 of int32 column per stored entry,
        held only by the caller, :attr:`_classes` and
        :func:`bfs_distances`."""
        return sp.csr_matrix((np.ones(len(self.indices)), self.indices,
                              self.indptr), shape=(self.n, self.n))

    @cached_property
    def _vertex_transitive(self) -> bool:
        """The certificate behind :func:`vertex_transitive`."""
        if not self.automorphisms:
            return False
        n = self.n
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        keys = rows * n + self.indices   # ascending, as CSR rows are sorted
        for perm in self.automorphisms:
            if perm.shape != (n,) \
                    or not np.array_equal(np.sort(perm), np.arange(n)):
                return False
            if not np.array_equal(np.sort(perm[rows] * n + perm[self.indices]),
                                  keys):
                return False
        # the orbit of 0 is its component in the graph of moves v -> perm[v]
        moves = sp.csr_matrix(
            (np.ones(n * len(self.automorphisms)),
             (np.tile(np.arange(n), len(self.automorphisms)),
              np.concatenate(self.automorphisms))), shape=(n, n))
        return csgraph.connected_components(moves, directed=False)[0] == 1

    @cached_property
    def _cyclic_automorphism(self):
        """The answer of :func:`cyclic_automorphism`."""
        if not self._vertex_transitive:
            return None
        best = None
        identity = np.arange(self.n)
        for perm in self.automorphisms:
            # the cycle length of vertex 0, by one scalar walk
            m, v = 1, int(perm[0])
            while v != 0:
                m, v = m + 1, int(perm[v])
            if m < 2 or (best is not None and m <= best[1]):
                continue
            # uniform: no vertex returns before step m, every vertex at m
            cur = perm
            for _ in range(m - 1):
                if (cur == identity).any():
                    break
                cur = perm[cur]
            else:
                if np.array_equal(cur, identity):
                    best = (perm, m)
        return best

    @cached_property
    def _classes(self) -> tuple:
        """``(classes, bipartite)`` of :func:`_support_classes`, computed
        once: the components of g and whether each is bipartite.  The
        unit-weight matrix it reads is dropped when they are found."""
        return _support_classes(self._matrix)

    @cached_property
    def _ball_tables(self) -> dict:
        """Radius -> :class:`BallTable`, filled by :func:`ball_table`."""
        return {}

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self):
        kind = self.provenance.get("kind", "graph")
        return f"Graph(n={self.n}, m={self.m}, kind={kind!r})"


def _expand(indptr, indices, vertices) -> tuple:
    """:meth:`Graph.expand` on the CSR arrays ``(indptr, indices)``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    degs = indptr[vertices + 1] - indptr[vertices]
    slot = np.repeat(np.arange(len(vertices)), degs)
    within = np.arange(len(slot)) - np.repeat(np.cumsum(degs) - degs, degs)
    return slot, indices[indptr[vertices][slot] + within]


def make_graph(n: int, edges, provenance=None, automorphisms=()) -> Graph:
    """Validate an edge list and build a :class:`Graph`.

    ``edges`` is an iterable of (u, v) pairs or an (m, 2) integer array.
    Rejects self-loops, out-of-range endpoints and parallel edges; the
    error names the first bad edge, checked in that order.
    ``automorphisms`` are copied as they are, unchecked: only
    :func:`vertex_transitive` decides whether they certify anything.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    try:
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                         dtype=np.int64)
    except OverflowError as exc:
        raise GraphError(f"vertex label out of range for n={n}") from exc
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    u, v = pairs.T   # ValueError unless the rows are pairs
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False   # first copies pass
    loop = u == v
    out_of_range = (lo < 0) | (hi >= n)
    bad = np.flatnonzero(loop | out_of_range | repeat)
    if len(bad):
        i = bad[0]
        a, b = int(u[i]), int(v[i])
        if loop[i]:
            raise GraphError(f"self-loop at vertex {a}")
        if out_of_range[i]:
            raise GraphError(f"edge ({a},{b}) out of range for n={n}")
        raise GraphError(f"parallel edge ({min(a, b)},{max(a, b)})")
    # each edge from both ends, sorted by (row, neighbor)
    return _graph_from_keys(n, np.sort(np.concatenate((keys, hi * n + lo))),
                            provenance, automorphisms)


def _graph_from_keys(n: int, keys: np.ndarray, provenance=None,
                     automorphisms=()) -> Graph:
    """The :class:`Graph` whose rows list the keys u * n + v of every
    (vertex u, neighbor v) pair, each edge from both ends.

    ``keys`` must be strictly increasing, in 0..n^2-1 and loop-free,
    checked in that order in O(len(keys) + n log len(keys)) time; the
    :class:`GraphError` names the first key that fails the first failing
    check.  The row of u is then the run of keys from u * n on, found by
    one search per vertex, with no sort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    down = np.flatnonzero(np.diff(keys) <= 0)
    if len(down):
        key = int(keys[down[0] + 1])
        word = "repeated" if key == keys[down[0]] else "out-of-order"
        raise GraphError(f"{word} pair {divmod(key, max(n, 1))} in the keys")
    if len(keys) and not (keys[0] >= 0 and keys[-1] < n * n):
        key = int(keys[0] if keys[0] < 0 else keys[-1])
        raise GraphError(f"key {key} out of range for n={n}")
    found = _sorted_lookup(keys, np.arange(n) * (n + 1))[1]
    if found.any():
        raise GraphError(f"self-loop at vertex {int(np.argmax(found))}")
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    indices = keys % max(n, 1)
    perms = tuple(np.array(p, dtype=np.int64) for p in automorphisms)
    for arr in (indptr, indices) + perms:
        arr.flags.writeable = False
    return Graph(n=n, indptr=indptr, indices=indices,
                 provenance=dict(provenance or {}), automorphisms=perms)


# ---------------------------------------------------------------------------
# named families


def build_named(name: str, *params) -> Graph:
    """Build a standard small graph: complete, cycle, hypercube, petersen, prism."""
    return named_builder(name)(*params)


def named_builder(name: str):
    """The builder of the named graph ``name``; its parameters are the
    graph's: complete(n), cycle(n), hypercube(dim), petersen(), prism()."""
    builders = {
        "complete": _complete,
        "cycle": _cycle,
        "hypercube": _hypercube,
        "petersen": _petersen,
        "prism": _prism,
    }
    if not isinstance(name, str) or name not in builders:
        raise GraphError(f"unknown graph name {name!r}; "
                         f"expected one of {sorted(builders)}")
    return builders[name]


def _complete(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"complete graph needs n >= 2, got {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, edges, {"kind": "named", "name": "complete", "n": n},
                      [_rotation(n)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    # the rotations by 1, 2, 4, ... < n, the one by 1 first: a walk from 0
    # along them reaches every vertex in log2 n levels, not n - 1
    return make_graph(n, edges, {"kind": "named", "name": "cycle", "n": n},
                      [_rotation(n, 1 << i)
                       for i in range((n - 1).bit_length())])


def _rotation(n: int, step: int = 1) -> np.ndarray:
    return (np.arange(n) + step) % n


def _hypercube(dim: int) -> Graph:
    if dim < 1:
        raise GraphError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(dim)
             if x < (x ^ (1 << b))]
    flips = [np.arange(n) ^ (1 << b) for b in range(dim)]
    return make_graph(n, edges, {"kind": "named", "name": "hypercube", "dim": dim},
                      flips)


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
        # a parallel edge is a repeated key: equal neighbours once sorted
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            continue
        return make_graph(
            n, pairs,
            {"kind": "random-regular", "n": n, "d": d, "seed": int(seed),
             "attempts": attempt})
    raise GraphError(
        f"pairing model failed to produce a simple graph after "
        f"{max_attempts} attempts (n={n}, d={d}, seed={seed})")


def build_high_girth_regular(n: int, d: int, min_girth: int,
                             seed: int) -> Graph:
    """Random d-regular graph surgically rewired to have girth >= min_girth.

    Starts from the pairing model and repeatedly performs degree-preserving
    double-edge swaps that each remove one edge of a shortest short cycle.
    Deterministic given ``seed``; raises after ``MAX_GIRTH_SWAPS`` swaps.
    Used to manufacture fixtures whose radius-k balls are trees
    (girth > 2k).
    """
    g = build_random_regular(n, d, seed)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=1))
    edge_set = set(g.edges)
    adj = [set(a) for a in g.adjacency]

    swaps = 0
    while True:
        # the live sets: their iteration order picks the edge on ties
        _, found = _shortest_cycle(adj, min_girth)
        if found is None:
            break
        u, v = found
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
        if swaps > MAX_GIRTH_SWAPS:
            raise GraphError(
                f"girth surgery did not converge within {MAX_GIRTH_SWAPS} "
                f"swaps (n={n}, d={d}, min_girth={min_girth}, seed={seed})")
    return make_graph(
        n, list(edge_set),
        {"kind": "random-regular", "n": n, "d": d, "seed": int(seed),
         "min_girth": min_girth, "swaps": swaps})


# ---------------------------------------------------------------------------
# traversal helpers


def _check_vertex(n: int, v) -> None:
    """Raise :class:`GraphError` naming ``v`` unless 0 <= v < n."""
    if not 0 <= v < n:
        raise GraphError(f"vertex {v} out of range for n={n}")


def _bfs_levels(adj, v: int):
    """FIFO breadth-first order from v, neighbors in adjacency order, and
    the end of each distance level in it: level 0 is ``order[:ends[0]]``
    (just v), level r > 0 is ``order[ends[r - 1]:ends[r]]``."""
    _check_vertex(adj.shape[0], v)
    order, pred = csgraph.breadth_first_order(adj, v, directed=True,
                                              return_predecessors=True)
    pos = np.empty(adj.shape[0], dtype=np.int64)
    pos[order] = np.arange(len(order))
    # children are discovered in the order their parents leave the queue
    parent_pos = pos[pred[order[1:]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(1 + int(np.searchsorted(parent_pos, ends[-1])))
    return order.astype(np.int64), ends


def _level_distances(adj, v: int) -> np.ndarray:
    """int64 BFS distances from v over the CSR matrix ``adj``; -1 off v's
    component."""
    order, ends = _bfs_levels(adj, v)
    dist = np.full(adj.shape[0], -1, dtype=np.int64)
    dist[order] = np.repeat(np.arange(len(ends), dtype=np.int64),
                            np.diff(ends, prepend=0))
    return dist


def bfs_distances(g: Graph, source: int, cutoff=None) -> np.ndarray:
    """Distances from ``source``; unreachable vertices, and those beyond
    ``cutoff`` when it is given, get -1.  At its peak a call holds a
    unit-weight copy of g's adjacency (12 bytes per stored entry, see
    :attr:`Graph._matrix`) and a few n-sized arrays; it keeps nothing."""
    dist = _level_distances(g._matrix, source)
    if cutoff is not None:
        dist[dist > cutoff] = -1
    return dist


@dataclass(frozen=True, eq=False)
class BallTable:
    """Radius-k balls around every vertex, and the step table through
    which every walker that regenerates at distance k moves.

    ``keys`` holds ``anchor * n + u`` for every u within distance k of
    anchor, sorted ascending; ``dist[i]`` is the distance of ``keys[i]``.
    On a certified graph they are vertex 0's, moved (same bits).
    The index of a pair in ``keys`` is its position.  ``indptr`` and
    ``indices`` are the graph's CSR arrays, which the step table reads.

    :meth:`moves` lists the moves out of given interior positions, and
    :attr:`steps` tables them for all: a walker at (anchor, u) moves to
    its slot-th neighbor w, at (anchor, w), by one gather, no search.
    :attr:`home` gives the position of (v, v), where a walker that has
    just reached its anchor's sphere at v starts v's ball.
    """

    n: int
    k: int
    keys: np.ndarray
    dist: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def vertex(self, pos) -> np.ndarray:
        """The vertex u of each position of (anchor, u)."""
        return self.keys[pos] % self.n

    def anchor(self, pos) -> np.ndarray:
        """The anchor of each position of (anchor, u)."""
        return self.keys[pos] // self.n

    @cached_property
    def home(self) -> np.ndarray:
        """``home[v]``: the position of (v, v)."""
        return _read_only(
            np.searchsorted(self.keys, np.arange(self.n) * (self.n + 1)))

    def _spans(self, anchors) -> np.ndarray:
        """``(lo, hi)``: anchor ``anchors[i]`` holds the positions lo[i]..
        hi[i]-1; the smallest anchor outside 0..n-1 raises
        :class:`GraphError`."""
        bad = anchors[(anchors < 0) | (anchors >= self.n)]
        if len(bad):
            _check_vertex(self.n, int(bad[0]))
        return np.searchsorted(self.keys, (anchors * self.n,
                                           (anchors + 1) * self.n))

    def positions(self, anchors) -> np.ndarray:
        """The positions of every (anchor, u) of the sorted distinct
        ``anchors``, anchor after anchor; the smallest anchor outside
        0..n-1 raises :class:`GraphError`."""
        lo, hi = self._spans(np.asarray(anchors, dtype=np.int64))
        size = hi - lo
        return np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size,
                                                 size)

    def reach(self, anchors) -> np.ndarray:
        """The largest distance in the ball of each of the sorted distinct
        ``anchors``, k unless its k-sphere is empty, read off its run of
        ``dist``; an anchor outside 0..n-1 raises as in :meth:`positions`."""
        lo, hi = self._spans(np.asarray(anchors, dtype=np.int64))
        # keep each run lo..hi-1, not the one up to the next lo; reduceat
        # runs the last to the table's end itself
        cuts = np.column_stack((lo, hi)).ravel()
        return np.maximum.reduceat(self.dist, cuts[cuts < self.dist.size])[::2]

    def batches(self, anchors) -> list:
        """The sorted distinct ``anchors`` cut, in order, into the batches
        of :func:`_ball_batches`, whose balls take one :meth:`positions`
        each; the smallest anchor outside 0..n-1 raises
        :class:`GraphError`."""
        anchors = np.asarray(anchors, dtype=np.int64)
        lo, hi = self._spans(anchors)
        cuts = _ball_batches(hi - lo, int(np.diff(self.indptr).max(initial=0)))
        return [anchors[a:b] for a, b in itertools.pairwise(cuts)]

    def moves(self, rows) -> tuple:
        """``(slot, land, step)``: every move out of the interior positions
        ``rows``, row after row in adjacency order, built for ``rows``
        alone: position ``rows[slot]`` of (anchor, u) moves to position
        ``land`` of (anchor, w) with probability ``step`` = 1/deg(u)."""
        anchors, vertices = np.divmod(self.keys[rows], self.n)
        slot, nbr = _expand(self.indptr, self.indices, vertices)
        # a neighbor of an interior vertex lies in the ball
        land = np.searchsorted(self.keys, anchors[slot] * self.n + nbr)
        return slot, land, 1.0 / np.diff(self.indptr)[vertices[slot]]

    @cached_property
    def steps(self) -> tuple:
        """``(first, target)``, built on first use: :meth:`moves` over every
        interior position p of (anchor, u), so ``target[first[p] + slot]``
        is the position of (anchor, w), w the slot-th neighbor of u.  A
        position at distance k has an empty row; ``target`` holds
        n |B_{k-1}| d entries on a d-regular graph whose balls have
        |B_{k-1}| vertices."""
        inner = np.flatnonzero(self.dist < self.k)
        slot, target, _ = self.moves(inner)
        first = np.zeros(len(self.keys) + 1, dtype=np.int64)
        first[inner + 1] = np.bincount(slot, minlength=len(inner))
        np.cumsum(first, out=first)
        return _read_only(first), _read_only(target)


def _sorted_lookup(keys: np.ndarray, query):
    """``(pos, found)``: where each query would sit in the sorted ``keys``
    (clipped to a valid index) and whether it is there."""
    pos = np.minimum(np.searchsorted(keys, query), max(len(keys) - 1, 0))
    found = keys[pos] == query if len(keys) else np.zeros(np.shape(query), bool)
    return pos, found


def ball_table(g: Graph, k: int) -> BallTable:
    """The radius-k :class:`BallTable` of ``g``, built once per (graph, k);
    see :func:`_build_ball_table`."""
    tables = g._ball_tables
    table = tables.get(k)
    if table is None:
        table = tables[k] = _build_ball_table(g, k)
    return table


def _build_ball_table(g: Graph, k: int) -> BallTable:
    """On a graph certified by :func:`vertex_transitive`, vertex 0's ball
    moved to every vertex (:func:`_moved_balls`), else a BFS from every
    anchor: the same keys and distances."""
    if not 1 <= k <= MAX_BALL_RADIUS:
        raise GraphError(f"ball radius must lie in 1..{MAX_BALL_RADIUS}, "
                         f"got {k}")
    if vertex_transitive(g):
        keys, dist = _moved_balls(g, k)
    else:
        keys, dist = _ball_keys(g, np.arange(g.n, dtype=np.int64), k)
    return BallTable(n=g.n, k=k, keys=_read_only(keys),
                     dist=_read_only(dist), indptr=g.indptr,
                     indices=g.indices)


def _ball_keys(g: Graph, anchors: np.ndarray, k: int) -> tuple:
    """The one ball builder: ``(keys, dist)``, the keys ``anchor * n + u``
    of every u within distance k of each of the sorted int64 ``anchors``,
    ascending, and their distances in the narrowest signed type (int8 up
    to ``MAX_BALL_RADIUS``).  A level-synchronous BFS from every anchor
    at once, which stops at the first empty level."""
    n = g.n
    levels = [anchors * (n + 1)]
    owners = vertices = anchors
    while len(levels) <= k:
        slot, nbr = g.expand(vertices)
        found = np.sort(owners[slot] * n + nbr)
        found = found[np.diff(found, prepend=-1) != 0]
        # neighbors of level r-1 lie on levels r-2, r-1 or r
        for level in levels[-2:]:
            found = found[~_sorted_lookup(level, found)[1]]
        if not len(found):
            break
        levels.append(found)
        owners, vertices = np.divmod(found, n)
    keys = np.concatenate(levels)
    dist = np.repeat(np.arange(len(levels),
                               dtype=np.min_scalar_type(-len(levels))),
                     [len(level) for level in levels])
    order = np.argsort(keys, kind="stable")
    return keys[order], dist[order]


def _moved_balls(g: Graph, k: int) -> tuple:
    """:func:`_ball_keys` of every vertex of a certified graph, from vertex
    0's ball alone.  A walk from 0 along the moves v -> perm[v] of the
    certified arrays gives each vertex v an automorphism sigma_v with
    sigma_v(0) = v, and v's ball is sigma_v of 0's: row perm[u] = perm[row
    u], one gather per vertex, and the distances are row 0's, which
    automorphisms preserve.  The arrays take turns, each moving the
    vertices reached since its last turn, so a round of turns goes at
    least one breadth-first level.  Each row is then sorted once, as
    packed (vertex, distance) words, in place."""
    n = g.n
    ball, dist = _ball_keys(g, np.zeros(1, dtype=np.int64), k)
    rows = np.empty((n, len(ball)), dtype=np.int64)
    rows[0] = ball
    seen = np.arange(n) == 0
    order = np.zeros(n, dtype=np.int64)     # the vertices as reached
    done = [0] * len(g.automorphisms)       # order[:done[i]] took array i
    total = 1
    while total < n:
        for i, perm in enumerate(g.automorphisms):
            src = order[done[i]:total]
            done[i] = total
            moved = perm[src]
            fresh = ~seen[moved]
            new = moved[fresh]
            seen[new] = True
            rows[new] = perm[rows[src[fresh]]]
            order[total:total + len(new)] = new
            total += len(new)
    rows *= k + 1
    rows += dist
    rows.sort(axis=1)
    dists = np.empty(rows.shape, dtype=dist.dtype)
    np.remainder(rows, k + 1, out=dists, casting="unsafe")
    rows //= k + 1
    rows += np.arange(0, n * n, n)[:, None]
    return rows.ravel(), dists.ravel()


def _ball_batches(sizes: np.ndarray, degree: int) -> list:
    """The batch rule for many balls: cuts ``[0, ..., len(sizes)]`` that
    split consecutive balls of ``sizes`` keys into batches of whole balls,
    each as many as keep its keys times ``degree`` (a bound on the moves
    of ``hitting._ball_solves`` and the neighbor lookups of
    :func:`_ball_edges`) within 16 ``FAMILY_CHUNK_ROWS`` entries, and at
    least one."""
    return _cuts(sizes, max(1, 16 * FAMILY_CHUNK_ROWS // max(degree, 1)))


def row_chunks(sizes: np.ndarray) -> list:
    """The chunk rule for a sparse matrix read row by row: cuts ``[0, ...,
    len(sizes)]`` that split consecutive rows of ``sizes`` stored entries
    into chunks of at most ``FAMILY_CHUNK_ROWS`` entries, and at least
    one row."""
    return _cuts(sizes, FAMILY_CHUNK_ROWS)


def _cuts(sizes: np.ndarray, step: int) -> list:
    """Cuts ``[0, ..., len(sizes)]`` of consecutive items of ``sizes``
    entries into runs of at most ``step`` entries, and at least one."""
    ends = np.cumsum(sizes)
    cuts = [0]
    while cuts[-1] < len(sizes):
        lo = cuts[-1]
        top = ends[lo] - sizes[lo] + step
        cuts.append(max(int(np.searchsorted(ends, top, "right")), lo + 1))
    return cuts


def _ball_edges(g: Graph, keys: np.ndarray) -> tuple:
    """``(src, dst)``: the positions in the ascending ``keys`` (as
    :func:`_ball_keys` gives them) of (anchor, u) and (anchor, w) for every
    edge u ~ w with u < w of an induced ball, in the order of ``g.edges``,
    ball after ball.  Every neighbor of every key is looked up at once, so
    callers with many balls pass a batch of :func:`_ball_batches` at a
    time."""
    anchors, vertices = np.divmod(keys, g.n)
    slot, nbr = g.expand(vertices)
    up = vertices[slot] < nbr
    slot, nbr = slot[up], nbr[up]
    pos, found = _sorted_lookup(keys, anchors[slot] * g.n + nbr)
    return slot[found], pos[found]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _support_classes(support: sp.csr_matrix, colour: bool = True) -> tuple:
    """``(classes, bipartite)`` of the undirected graph on the symmetric
    sparsity pattern of ``support``.

    ``classes`` are its components, sorted vertex tuples ordered by least
    vertex; ``bipartite[i]`` says whether class i can be 2-coloured (a
    self-loop is an odd cycle), or ``bipartite`` is None when ``colour``
    is False.  Two csgraph calls at most, however many classes there are:
    one components call, and one breadth-first search.  With one class
    the search runs from vertex 0 on ``support`` itself; with several,
    from a virtual vertex n joined to each class's least vertex, on a copy
    of the pattern with those edges added (the forest).  The depth
    parities come from pointer doubling up the BFS tree, and a class is
    bipartite when no entry joins two vertices of one parity.  The time
    is O(n log n + nnz).  Beside ``support`` a call holds a few bytes per
    entry for the parity test and O(n) arrays, plus, with several
    classes, the forest: 8 bytes of weight and one column per entry.
    """
    n = support.shape[0]
    nnz = support.nnz
    indptr, indices = support.indptr, support.indices[:nnz]
    # the pattern is symmetric, so its strong components are its
    # components, found with no transpose
    count, labels = csgraph.connected_components(support, directed=True,
                                                 connection="strong")
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    ends = np.cumsum(sizes)
    least = order[ends - sizes]           # each label's least vertex
    rank = np.argsort(least)
    flat = order.tolist()
    classes = tuple(tuple(flat[lo:hi]) for lo, hi in
                    np.stack((ends - sizes, ends), axis=1)[rank].tolist())
    if not colour:
        return classes, None
    if count == 1:              # its least vertex is 0
        root, graph = 0, support
    else:
        root, graph = n, sp.csr_matrix(
            (np.ones(nnz + count),
             np.concatenate((indices, least.astype(indices.dtype))),
             np.append(indptr, nnz + count)), shape=(n + 1, n + 1))
    pred = csgraph.breadth_first_order(graph, root, directed=True,
                                       return_predecessors=True)[1]
    del graph
    # parity[v]: the parity of the path from v up to up[v], doubled
    # until every path ends at the root
    up = pred.astype(np.int64)
    up[root] = root
    parity = np.ones(len(up), dtype=np.int8)
    parity[root] = 0
    while np.any(up != root):
        parity ^= parity[up]
        up = up[up]
    degs = np.diff(indptr)
    odd = np.repeat(parity[:n], degs) == parity[indices]
    bipartite = np.ones(count, dtype=bool)
    bipartite[np.repeat(labels, degs)[odd]] = False
    return classes, tuple(bipartite[rank].tolist())


def connected_components(g: Graph) -> list:
    """List of components, each a sorted list of vertices, ordered by
    least vertex; read off the classes :class:`Graph` computes once."""
    return [list(c) for c in g._classes[0]]


def is_connected(g: Graph) -> bool:
    return len(g._classes[0]) <= 1


def is_bipartite(g: Graph) -> bool:
    """Whether every component of g is bipartite; read off the classes
    :class:`Graph` computes once."""
    return all(g._classes[1])


def vertex_transitive(g: Graph) -> bool:
    """Whether ``g.automorphisms`` certify that g is vertex-transitive.

    True only when every attached array is a permutation of the vertices
    that maps the sorted edge keys u*n + v onto themselves, and the orbit
    of vertex 0 under them (one csgraph components call) is all of V.
    False at once when no arrays are attached.  Computed once per graph.
    On a certified graph an automorphism carries vertex 0 onto any
    vertex, so a quantity that automorphisms preserve needs vertex 0 only.
    """
    return g._vertex_transitive


def cyclic_automorphism(g: Graph):
    """``(perm, m)``: the certified attached array whose cycles all have
    one length m >= 2, the longest such m (the first array on ties); None
    when g is not certified by :func:`vertex_transitive` or no attached
    array has uniform cycles (one with a fixed point never does).

    Each candidate costs O(n m) time in O(n) memory: its powers are
    composed one at a time, never stacked.  Computed once per graph.
    """
    return g._cyclic_automorphism


def _scan_vertices(g: Graph):
    """The vertices a graph-wide scan must visit: 0 alone on a certified
    vertex-transitive graph, every vertex otherwise."""
    return [0] if vertex_transitive(g) else range(g.n)


def girth(g: Graph):
    """Length of the shortest cycle, or an infinite sentinel for forests.

    On a certified vertex-transitive graph the scan runs from vertex 0
    only: some shortest cycle passes through every vertex, and a BFS
    from a vertex on a shortest cycle finds its length."""
    return _shortest_cycle(g.adjacency, INFINITE_GIRTH, _scan_vertices(g))[0]


def _shortest_cycle(adjacency, bound, sources=None) -> tuple:
    """``(length, edge)`` of the first shortest cycle shorter than
    ``bound``, or ``(bound, None)`` when there is none.

    BFS from every vertex, or from each of ``sources``; a non-tree edge
    (u, w) seen from a source closes a walk of length dist[u] + dist[w] + 1
    that contains a cycle no longer, and the minimum over all sources is
    exact.  A vertex with 2 dist[u] + 1 >= best is not expanded: it can
    only close cycles of that length or ones already found.  ``edge`` is
    (min, max) of the first non-tree edge that gave the final length;
    neighbors are visited in the iteration order of ``adjacency[u]``.
    """
    best, edge = bound, None
    for src in range(len(adjacency)) if sources is None else sources:
        dist = {src: 0}
        parent = {src: -1}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:
                continue
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    length = dist[u] + dist[w] + 1
                    if length < best:
                        best, edge = length, (min(u, w), max(u, w))
    return best, edge


# ---------------------------------------------------------------------------
# cycles in balls


def count_simple_cycles(edges) -> int:
    """Exact number of simple cycles in the graph given by ``edges``.

    ``edges`` lists (u, v) pairs on sortable labels, in either
    orientation; a self-loop or a repeated edge raises GraphError naming
    it.  The graph is peeled to its 2-core, whose cycle space is
    enumerated: a nonempty XOR of fundamental cycles is a simple cycle
    when it meets each core vertex of degree >= 3 at most twice (a
    degree-2 vertex passes in every even subgraph) and the walk from its
    lowest edge takes all of it.  A core of cycle rank c has at most
    2(c - 1) vertices of degree >= 3, so the test of each of the 2^c - 1
    XORs costs O(c) big-integer operations.  Only the disjoint unions of
    cycles that pass it are walked, one hop per path of degree-2 vertices
    between those vertices.  The time is exponential in the rank only, so
    callers budget the rank.
    """
    pairs = [tuple(e) for e in edges]
    labels = sorted({x for e in pairs for x in e})
    pos = {x: i for i, x in enumerate(labels)}
    try:
        g = make_graph(len(labels), [(pos[a], pos[b]) for a, b in pairs])
    except GraphError:
        # make_graph names the edge in 0..V-1; name it in the caller's labels
        seen = set()
        for a, b in pairs:
            if a == b:
                raise GraphError(f"self-loop at vertex {a}") from None
            if frozenset((a, b)) in seen:
                raise GraphError(f"repeated edge ({a},{b})") from None
            seen.add(frozenset((a, b)))
        raise
    ends = g.edges
    inc = [0] * g.n         # each vertex's edges as a bitmask

    def far(bit, x):        # the other end of edge ``bit`` from x
        u, w = ends[bit.bit_length() - 1]
        return w if u == x else u

    for i, (u, w) in enumerate(ends):
        inc[u] |= 1 << i
        inc[w] |= 1 << i
    leaves = [v for v in range(g.n) if inc[v].bit_count() < 2]
    while leaves:           # peel to the 2-core
        v = leaves.pop()
        if inc[v]:
            x = far(inc[v], v)
            inc[v], inc[x] = 0, inc[x] ^ inc[v]
            if inc[x].bit_count() == 1:
                leaves.append(x)

    # path[v]: the spanning-forest path from v to its root, so a tree
    # edge's fundamental XOR is 0
    path = [None] * g.n
    for r in range(g.n):
        if inc[r] and path[r] is None:
            path[r] = 0
            queue = [r]
            for u in queue:
                for w in g.adjacency[u]:
                    if inc[w] and path[w] is None:
                        path[w] = path[u] ^ (inc[u] & inc[w])
                        queue.append(w)
    basis = [c for i, (u, w) in enumerate(ends)
             if inc[u] and inc[w] and (c := path[u] ^ path[w] ^ (1 << i))]
    branch = [m for m in inc if m.bit_count() > 2]

    def trace(x, edge):     # from x, entered by edge, through degree-2 vertices
        mask = edge
        while inc[x].bit_count() == 2:
            edge = inc[x] & ~edge
            if mask & edge:
                break       # back at the first edge: a cycle of degree 2
            mask |= edge
            x = far(edge, x)
        return mask, x

    # hop[i]: the core path through edge i, between vertices of core degree
    # >= 3, as (edges, end, end).  An even subgraph holds all of a path or
    # none of it, so a walk takes each path in one hop.
    hop = [None] * len(ends)
    for i, (u, w) in enumerate(ends):
        if hop[i] is None and inc[u] >> i & 1:
            ahead, b = trace(w, 1 << i)
            if inc[b].bit_count() == 2:     # a whole cycle, ends at b
                seg = (ahead, b, b)
            else:
                back, a = trace(u, 1 << i)
                seg = (ahead | back, a, b)
            rest = seg[0]
            while rest:
                low = rest & -rest
                hop[low.bit_length() - 1] = seg
                rest ^= low

    def one_cycle(mask):    # walk path by path from the lowest edge's
        walked, start, x = hop[(mask & -mask).bit_length() - 1]
        while x != start:
            path, a, b = hop[(mask & inc[x] & ~walked).bit_length() - 1]
            walked |= path
            x = b if a == x else a
        return walked == mask

    count = mask = 0
    # Gray-code walk over all nonempty subsets of the basis
    for step in range(1, 1 << len(basis)):
        mask ^= basis[(step & -step).bit_length() - 1]
        for m in branch:
            if (mask & m).bit_count() > 2:
                break
        else:
            count += one_cycle(mask)
    return count


@dataclass(frozen=True)
class Assumption1Report:
    """Per-center ball statistics aggregated to maxima over all centers.
    The repr omits ``max_simple_cycle_bound`` = 2^max_cycle_rank - 1: it
    can run to thousands of digits, past the int-to-str limit."""

    radius: int
    max_excess: int
    max_cycle_rank: int
    max_simple_cycle_bound: int = field(repr=False)
    max_simple_cycle_count: object
    all_counts_exact: bool


def assumption1_scan(g: Graph, r: int) -> Assumption1Report:
    """Worst-case cycle content over all radius-r balls.

    A ball B's excess is the cycle rank of its absorption-relevant
    subgraph, the edges with an endpoint at distance < r: their number -
    |B| + 1, 0 on a tree ball.  Its rank is that of the whole induced
    ball, which is connected: induced edges - |B| + 1.  The rank and the
    simple-cycle figures are the quantity whose uniform boundedness the
    machinery needs.  On a certified vertex-transitive graph every ball
    is a copy of vertex 0's, and that one ball is scanned.

    The balls are built by :func:`_ball_keys` a batch of centers at a
    time, cut by :func:`_ball_batches` as if each ball had the most keys a
    radius-r ball can have, so the memory is bounded whatever n is; one
    :func:`_ball_edges` lookup per batch gives both ranks and the edges
    whose simple cycles are counted, for balls of rank 1 to
    ``CYCLE_RANK_BUDGET`` only, and none once some rank exceeds it.
    """
    if r < 0:
        raise GraphError(f"radius must be >= 0, got {r}")
    # a radius-r ball has at most min(n, (d + 1)^r) vertices, d the
    # largest degree
    d = g.degree_profile.max_degree
    centers = np.asarray(_scan_vertices(g), dtype=np.int64)
    most = np.full(len(centers), min(g.n, (d + 1) ** min(r, g.n)))
    max_excess = max_rank = max_count = 0
    for lo, hi in itertools.pairwise(_ball_batches(most, d)):
        keys, dist = _ball_keys(g, centers[lo:hi], r)
        owner = np.searchsorted(centers[lo:hi], keys // g.n)
        src, dst = _ball_edges(g, keys)
        ball = owner[src]       # ascending: each ball's edges are one run
        inner = dist < r
        size, full, relevant = (np.bincount(i, minlength=hi - lo) for i in
                                (owner, ball, ball[inner[src] | inner[dst]]))
        rank = full - size + 1
        max_excess = max(max_excess, int((relevant - size).max()) + 1)
        max_rank = max(max_rank, int(rank.max()))
        if max_rank <= CYCLE_RANK_BUDGET:
            vertex, keep = keys % g.n, (rank > 0)[ball]
            edges = list(zip(vertex[src[keep]].tolist(),
                             vertex[dst[keep]].tolist()))
            ends = np.cumsum(full[rank > 0]).tolist()
            max_count = max([max_count, *(
                count_simple_cycles(edges[a:b])
                for a, b in zip([0, *ends], ends))])
    exact = max_rank <= CYCLE_RANK_BUDGET
    return Assumption1Report(
        radius=r, max_excess=max_excess, max_cycle_rank=max_rank,
        max_simple_cycle_bound=(1 << max_rank) - 1,
        max_simple_cycle_count=max_count if exact else None,
        all_counts_exact=exact)


# ---------------------------------------------------------------------------
# distance-k graph


def inflate(g: Graph, k: int) -> Graph:
    """Graph on the same vertices joining pairs at distance exactly k.

    May be disconnected or irregular; an empty edge set is allowed (with
    a warning).  inflate(g, 1) reproduces g's edge set.  The rows are the
    radius-k :class:`BallTable`'s keys at distance k, which it holds
    sorted, each pair from both ends: the CSR arrays are read off them
    after linear checks, with no sort and no deduplication.
    """
    if k < 1:
        raise GraphError(f"inflation distance must be >= 1, got {k}")
    table = ball_table(g, k)
    keys = table.keys[table.dist == k]
    if not len(keys):
        warnings.warn(f"distance-{k} graph has no edges", stacklevel=2)
    prov = {"kind": "inflated", "k": k, "base": dict(g.provenance)}
    return _graph_from_keys(g.n, keys, prov)


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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise GraphFileError(f"byte {data[exc.start]:#x} is not ASCII",
                             data.count(b"\n", 0, exc.start) + 1) from exc
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
