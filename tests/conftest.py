import pytest

from helpers import python_kernels


def _no_kernel():
    with python_kernels():
        yield


# The same fixture for a test class and for a whole module.
no_kernel = pytest.fixture(scope="class")(_no_kernel)
no_kernel_module = pytest.fixture(scope="module")(_no_kernel)
