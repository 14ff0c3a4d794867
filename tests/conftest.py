import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from walklab import build_named, build_random_regular, build_high_girth_regular
from walklab.chains import chain_from_kernel, srw_chain


@pytest.fixture(scope="session")
def petersen():
    return build_named("petersen")


@pytest.fixture(scope="session")
def k4():
    return build_named("complete", 4)


@pytest.fixture(scope="session")
def c6():
    return build_named("cycle", 6)


@pytest.fixture(scope="session")
def q3():
    return build_named("hypercube", 3)


@pytest.fixture(scope="session")
def prism():
    return build_named("prism")


@pytest.fixture(scope="session")
def petersen_chain(petersen):
    return srw_chain(petersen)


@pytest.fixture(scope="session")
def k4_chain(k4):
    return srw_chain(k4)


@pytest.fixture(scope="session")
def girth5_graph():
    # radius-2 balls are trees: fixture for W = K comparisons at k = 2
    return build_high_girth_regular(400, 3, 5, seed=21)


@pytest.fixture(scope="session")
def random_cubic_medium():
    return build_random_regular(200, 3, 77)


@pytest.fixture(scope="session")
def two_step():
    """P^2 of a chain as the spectral suite builds it for its blend:
    ``chain_from_kernel`` on the product, each row's columns sorted."""
    def square(chain):
        kernel = chain.kernel @ chain.kernel
        kernel.sort_indices()
        return chain_from_kernel(kernel, chain.stationary)
    return square


def _reference_lanczos_steps(s, top):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    q = rng.standard_normal(s.shape[0])
    if top is not None:
        q -= (top @ q) * top
    q /= np.linalg.norm(q)
    prev, beta = np.zeros_like(q), 0.0
    while True:
        r = s @ q
        alpha = float(q @ r)
        r -= alpha * q
        r -= beta * prev
        if top is not None:
            r -= (top @ r) * top
        beta = float(np.linalg.norm(r))
        yield q, alpha, beta
        prev, q = q, r / beta


def reference_lanczos_extremal(s, ends, top=None, max_steps=20000):
    """Frozen copy of the plain Lanczos solve as first written: allocating
    ``s @ q`` products, ``np.linalg.norm`` and ``eigh_tridiagonal``.  The
    library's buffered form must match it bit for bit."""
    eps = np.finfo(float).eps
    alphas, betas = [], []
    found = [None] * len(ends)
    norm_t = 0.0
    for _, alpha, beta in _reference_lanczos_steps(s, top):
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        norm_t = max(norm_t, abs(alpha) + beta + (betas[-2] if k > 1 else 0))
        broke = beta <= math.sqrt(eps) * norm_t
        if broke or k % 16 == 0 or k == max_steps:
            for e, end in enumerate(ends):
                if found[e] is not None:
                    continue
                theta, vec = eigh_tridiagonal(
                    alphas, betas[:-1], select="i",
                    select_range=(end % k, end % k))
                if broke or beta * abs(vec[-1, 0]) \
                        <= eps * max(abs(theta[0]), eps ** (2 / 3)):
                    found[e] = vec[:, 0]
            if all(vec is not None for vec in found):
                break
        assert k < max_steps
    replay = max(len(vec) for vec in found)
    xs = [np.zeros(s.shape[0]) for _ in ends]
    for j, (q, _, _) in enumerate(_reference_lanczos_steps(s, top)):
        for x, vec in zip(xs, found):
            if j < len(vec):
                x += vec[j] * q
        if j + 1 == replay:
            break
    out = []
    for x in xs:
        x /= np.linalg.norm(x)
        sx = s @ x
        theta = float(x @ sx)
        out.append((theta, float(np.linalg.norm(sx - theta * x))))
    return out, k + replay


@pytest.fixture(scope="session")
def lanczos_reference():
    """:func:`reference_lanczos_extremal`, the frozen plain Lanczos solve."""
    return reference_lanczos_extremal
