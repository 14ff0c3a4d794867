import pytest

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
