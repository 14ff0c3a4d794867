"""Lubotzky-Phillips-Sarnak Ramanujan graphs X(p, q).

Cayley graphs of PSL(2,q) or PGL(2,q) whose p+1 generators come from the
integer quadruples a0^2 + a1^2 + a2^2 + a3^2 = p with a0 odd positive and
a1, a2, a3 even, mapped to 2x2 matrices over F_q through a square root of
-1 mod q.  When p is a quadratic residue mod q the generators land in
PSL(2,q) and the graph is non-bipartite on q(q^2-1)/2 vertices; otherwise
the graph lives on all of PGL(2,q), is bipartite, and has q(q^2-1)
vertices.  Matrices are kept as canonical projective representatives:
scaled so the first nonzero entry is 1.

The build runs on arrays: the group is an (N, 4) integer array of
representatives in the order of their mixed-radix codes; each generator
multiplies every element in one vectorized product mod q; the products
are canonicalised through a table of inverses mod q and mapped back to
vertex indices through a code table with q^3 + q^2 slots.  The same
lookup turns left multiplication by each generator, and by the unipotent
u = [[1, 1], [0, 1]], into a vertex permutation, which the graph carries
as an automorphism.  Left multiplication acts freely, so every cycle of
u's permutation has length ord(u) = q, in PSL and PGL alike; the
spectrum splits into blocks along those cycles (see
:func:`graphs.cyclic_automorphism`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .graphs import Graph, GraphError, make_graph


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def sqrt_minus_one(q: int) -> int:
    """Smallest square root of -1 mod q (exists iff q = 1 mod 4)."""
    if q % 4 != 1:
        raise GraphError(f"-1 is not a square mod {q}")
    for z in range(2, q):
        if legendre_symbol(z, q) == -1:
            root = pow(z, (q - 1) // 4, q)
            return min(root, q - root)
    raise GraphError(f"no quadratic non-residue found mod {q}")


def quadruples(p: int) -> list:
    """All (a0, a1, a2, a3) with sum of squares p, a0 odd > 0, rest even,
    in lexicographic order."""
    limit = math.isqrt(p)
    odd = range(1, limit + 1, 2)
    even = range(-(limit // 2) * 2, limit + 1, 2)
    return [a for a in itertools.product(odd, even, even, even)
            if sum(x * x for x in a) == p]


def _canon(m: np.ndarray, q: int) -> np.ndarray:
    """Scale each row of the (N, 4) array ``m`` so its first nonzero entry
    is 1 (projective representative), through a table of inverses mod q.
    Rows of invertible matrices have m[0] or m[1] nonzero."""
    inv = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)])
    lead = np.where(m[:, 0] != 0, m[:, 0], m[:, 1])
    return m * inv[lead][:, None] % q


def _codes(m: np.ndarray, q: int) -> np.ndarray:
    """Mixed-radix code of canonical rows: b q^2 + c q + d for (1, b, c, d)
    and q^3 + c q + d for (0, 1, c, d), so q^3 + q^2 slots in all."""
    head = np.where(m[:, 0] == 1, m[:, 1] * q * q, q ** 3)
    return head + m[:, 2] * q + m[:, 3]


def _times(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Products a b mod q of 2x2 matrices stored as rows (m00, m01, m10,
    m11): row by row, or one matrix against every row of the other."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return (a[:, [0, 0, 2, 2]] * b[:, [0, 1, 0, 1]]
            + a[:, [1, 1, 3, 3]] * b[:, [2, 3, 2, 3]]) % q


def generators(p: int, q: int) -> list:
    """Canonical generator matrices; must number exactly p+1."""
    i = sqrt_minus_one(q)
    a0, a1, a2, a3 = np.array(quadruples(p), dtype=np.int64).T
    raw = np.stack([a0 + i * a1, a2 + i * a3, -a2 + i * a3, a0 - i * a1],
                   axis=1) % q
    distinct = sorted(set(map(tuple, _canon(raw, q).tolist())))
    if len(distinct) != p + 1:
        raise GraphError(
            f"expected {p + 1} distinct generators, got {len(distinct)} "
            f"(p={p}, q={q})")
    return distinct


def build_lps(p: int, q: int) -> Graph:
    """Construct the (p+1)-regular LPS Cayley graph X(p, q).

    Requires distinct primes p, q = 1 mod 4 with q > 2*sqrt(p).  The
    result is audited: regularity, vertex count against the group order,
    and simplicity all raise on mismatch.  Vertex m is joined to m s for
    each generator s; left multiplication by each generator, and then by
    the unipotent [[1, 1], [0, 1]] of order q, is attached as an
    automorphism, for :func:`graphs.vertex_transitive` to check.
    """
    for name, value in (("p", p), ("q", q)):
        if not is_prime(value):
            raise GraphError(f"{name}={value} is not prime")
        if value % 4 != 1:
            raise GraphError(f"{name}={value} must be 1 mod 4")
    if p == q:
        raise GraphError("p and q must be distinct")
    if q * q <= 4 * p:
        raise GraphError(f"q={q} too small: need q > 2*sqrt(p) for p={p}")

    gens = generators(p, q)
    residue = legendre_symbol(p, q)
    # every slot of the code table: (1, b, c, d) below q^3, (0, 1, c, d)
    # above; PGL(2,q) is the invertible ones, in code order
    code = np.arange(q ** 3 + q * q)
    top = code >= q ** 3
    vertices = np.stack([~top, np.where(top, 1, code // (q * q)),
                         code // q % q, code % q], axis=1)
    a, b, c, d = vertices.T
    det = (a * d - b * c) % q
    keep = det != 0
    if residue == 1:
        squares = np.zeros(q, dtype=bool)
        squares[np.arange(1, q) ** 2 % q] = True
        keep &= squares[det]
        expected_n = q * (q * q - 1) // 2
    else:
        expected_n = q * (q * q - 1)
    vertices = vertices[keep]
    if len(vertices) != expected_n:
        raise GraphError(
            f"group enumeration produced {len(vertices)} elements, "
            f"expected {expected_n}")

    index = np.full(q ** 3 + q * q, -1, dtype=np.int64)
    index[_codes(vertices, q)] = np.arange(expected_n)

    def lookup(prod):
        return index[_codes(_canon(prod, q), q)]

    gens = np.array(gens, dtype=np.int64)
    # column j: the vertex m * gens[j] for every vertex m
    targets = np.column_stack([lookup(_times(vertices, s, q)) for s in gens])
    # row j: the vertex gens[j] * m, left multiplication, an automorphism;
    # the last row multiplies by the unipotent, whose cycles all have length q
    unipotent = np.array([1, 1, 0, 1], dtype=np.int64)
    left = np.stack([lookup(_times(s, vertices, q))
                     for s in np.vstack((gens, unipotent))])
    if (targets < 0).any() or (left < 0).any():
        raise GraphError("a product left the enumerated group")
    src = np.arange(expected_n)[:, None]
    loops = np.flatnonzero((targets == src).any(axis=1))
    if len(loops):
        m = tuple(vertices[loops[0]].tolist())
        raise GraphError(f"self-loop at group element {m}")
    keys = np.unique(np.minimum(src, targets) * expected_n
                     + np.maximum(src, targets))
    if 2 * len(keys) != expected_n * (p + 1):
        raise GraphError(
            f"multi-edge collision: {len(keys)} edges for "
            f"{expected_n} vertices of degree {p + 1}")

    g = make_graph(expected_n, np.column_stack(np.divmod(keys, expected_n)),
                   {"kind": "lps", "p": p, "q": q,
                    "group": "PSL" if residue == 1 else "PGL",
                    "legendre": residue}, left)
    if not g.is_regular or g.regular_degree != p + 1:
        raise GraphError("LPS output failed the regularity audit")
    return g
