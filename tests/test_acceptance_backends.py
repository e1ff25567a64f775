"""The acceptance suite again under the Python kernel and the numpy paths,
where the automatic run of ``test_acceptance.py`` used the C kernels."""

import pytest

from test_acceptance import *  # noqa: F403  (every test_* and helper of the suite)
from test_acceptance import make_corpus

pytestmark = pytest.mark.usefixtures("no_kernel_module")


@pytest.fixture(scope="module")
def random_corpus(no_kernel_module):
    """The corpus thinned by the Python kernel, once for the module."""
    return make_corpus()
