import hashlib
import math

import numpy as np
import pytest

from walklab import build_lps, make_graph, vertex_transitive
from walklab.graphs import (GraphError, cyclic_automorphism, is_bipartite,
                            is_connected)
from walklab.lps import (generators, is_prime, legendre_symbol, quadruples,
                         sqrt_minus_one)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


def test_legendre_symbol_against_square_table():
    for q in (13, 17, 29):
        squares = {(x * x) % q for x in range(1, q)}
        for a in range(1, q):
            expected = 1 if a in squares else -1
            assert legendre_symbol(a, q) == expected


def test_sqrt_minus_one():
    for q in (5, 13, 17, 29):
        i = sqrt_minus_one(q)
        assert (i * i) % q == q - 1


def test_quadruple_counts():
    # a0 odd positive, a1..a3 even, sum of squares = p: exactly p+1 of them
    for p in (5, 13, 17, 29):
        sols = quadruples(p)
        assert len(sols) == p + 1
        for a0, a1, a2, a3 in sols:
            assert a0 % 2 == 1 and a0 > 0
            assert all(a % 2 == 0 for a in (a1, a2, a3))
            assert a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p


def test_generators_distinct():
    gens = generators(13, 17)
    assert len(gens) == 14


def test_lps_13_17_structure():
    g = build_lps(13, 17)
    # quadratic residue case: PSL(2,17), n = 17 (17^2 - 1)/2
    assert legendre_symbol(13, 17) == 1
    assert g.n == 17 * (17 * 17 - 1) // 2 == 2448
    assert g.is_regular and g.regular_degree == 14
    assert is_connected(g)
    assert not is_bipartite(g)


def test_lps_5_13_bipartite():
    g = build_lps(5, 13)
    # non-residue case: PGL(2,13), n = 13 (13^2 - 1)
    assert legendre_symbol(5, 13) == -1
    assert g.n == 13 * 168 == 2184
    assert g.is_regular and g.regular_degree == 6
    assert is_connected(g)
    assert is_bipartite(g)


def test_lps_rejects_bad_inputs():
    with pytest.raises(GraphError, match="not prime"):
        build_lps(4, 13)
    with pytest.raises(GraphError, match="1 mod 4"):
        build_lps(7, 13)
    with pytest.raises(GraphError, match="distinct"):
        build_lps(13, 13)
    with pytest.raises(GraphError, match="too small"):
        build_lps(13, 5)


def test_lps_deterministic():
    a = build_lps(5, 13)
    b = build_lps(5, 13)
    assert a.edges == b.edges


# -- pinned edge sets and the per-element build they came from ----------------

LPS_FIXTURES = {
    # (p, q): sha256 prefix of repr(edges)
    (13, 17): "fe6cf5a4ef88e489",
    (5, 13): "f258a9dbaa0ee16b",
    (17, 13): "b335dd2b44337796",
    (5, 29): "bc00cc0279f1d665",
}


@pytest.mark.parametrize("key", sorted(LPS_FIXTURES),
                         ids=lambda key: "p{}-q{}".format(*key))
def test_lps_fixtures_pinned(key):
    g = build_lps(*key)
    digest = hashlib.sha256(repr(g.edges).encode()).hexdigest()[:16]
    assert digest == LPS_FIXTURES[key]


def reference_is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def reference_quadruples(p):
    """The quadruple search with its early exits and one isqrt per
    (a0, a1, a2)."""
    sols = []
    limit = int(math.isqrt(p))
    for a0 in range(1, limit + 1, 2):
        r0 = p - a0 * a0
        for a1 in range(-limit, limit + 1):
            if a1 % 2:
                continue
            r1 = r0 - a1 * a1
            if r1 < 0:
                continue
            for a2 in range(-limit, limit + 1):
                if a2 % 2:
                    continue
                r2 = r1 - a2 * a2
                if r2 < 0:
                    continue
                a3 = math.isqrt(r2)
                if a3 * a3 == r2 and a3 % 2 == 0:
                    sols.append((a0, a1, a2, a3))
                    if a3 > 0:
                        sols.append((a0, a1, a2, -a3))
    sols.sort()
    return sols


def test_number_theory_matches_loops():
    assert [is_prime(n) for n in range(-3, 3000)] == \
        [reference_is_prime(n) for n in range(-3, 3000)]
    for p in range(1, 120):
        assert quadruples(p) == reference_quadruples(p), p


def reference_canon(m, q):
    """Scale so the first nonzero entry equals 1, one tuple at a time."""
    for entry in m:
        if entry % q != 0:
            inv = pow(entry, q - 2, q)
            return tuple((inv * x) % q for x in m)
    raise GraphError("zero matrix cannot be normalized")


def reference_mul(a, b, q):
    return ((a[0] * b[0] + a[1] * b[2]) % q,
            (a[0] * b[1] + a[1] * b[3]) % q,
            (a[2] * b[0] + a[3] * b[2]) % q,
            (a[2] * b[1] + a[3] * b[3]) % q)


def reference_generators(p, q):
    i = sqrt_minus_one(q)
    return sorted({reference_canon(((a0 + i * a1) % q, (a2 + i * a3) % q,
                                    (-a2 + i * a3) % q, (a0 - i * a1) % q), q)
                   for a0, a1, a2, a3 in reference_quadruples(p)})


def reference_build_lps(p, q):
    """The per-element build: PGL(2,q) enumerated as 4-tuples, one dict
    lookup per (element, generator) product."""
    elems = [(1, b, c, d) for b in range(q) for c in range(q)
             for d in range(q) if d != (b * c) % q]
    elems += [(0, 1, c, d) for c in range(1, q) for d in range(q)]
    if legendre_symbol(p, q) == 1:
        squares = {(x * x) % q for x in range(1, q)}
        elems = [m for m in elems if (m[0] * m[3] - m[1] * m[2]) % q in squares]
    index = {m: i for i, m in enumerate(elems)}
    gens = reference_generators(p, q)
    edges = set()
    for m, src in index.items():
        for s in gens:
            tgt = index[reference_canon(reference_mul(m, s, q), q)]
            assert tgt != src
            edges.add((min(src, tgt), max(src, tgt)))
    assert 2 * len(edges) == len(elems) * (p + 1)
    return make_graph(len(elems), sorted(edges))


@pytest.mark.parametrize("key", [(13, 17), (5, 13), (17, 13)],
                         ids=lambda key: "p{}-q{}".format(*key))
def test_lps_matches_per_element_build(key):
    assert generators(*key) == reference_generators(*key)
    g = build_lps(*key)
    ref = reference_build_lps(*key)
    assert g == ref and g.edges == ref.edges


def test_lps_audits_raise(monkeypatch):
    from walklab import lps
    identity = [(1, 0, 0, 1)] + generators(5, 13)[1:]
    monkeypatch.setattr(lps, "generators", lambda p, q: identity)
    # the identity fixes every element; the first is vertex 0
    with pytest.raises(GraphError,
                       match=r"self-loop at group element \(1, 0, 0, 1\)$"):
        build_lps(5, 13)
    repeated = generators(5, 13)[:1] * 6
    monkeypatch.setattr(lps, "generators", lambda p, q: repeated)
    with pytest.raises(GraphError, match="multi-edge collision"):
        build_lps(5, 13)


@pytest.mark.parametrize("key", [(13, 17), (17, 13), (5, 13)],
                         ids=lambda key: "p{}-q{}".format(*key))
def test_lps_attaches_the_unipotent_of_order_q(key):
    p, q = key
    g = build_lps(p, q)
    assert len(g.automorphisms) == p + 2
    assert vertex_transitive(g)
    u = g.automorphisms[-1]
    # left multiplication is free: u^j fixes no vertex for 0 < j < q
    power = np.arange(g.n)
    for _ in range(q - 1):
        power = u[power]
        assert not (power == np.arange(g.n)).any()
    assert np.array_equal(u[power], np.arange(g.n))
    perm, m = cyclic_automorphism(g)
    assert m == q and perm is u
