"""The acceptance suite again under the Python kernel, where the automatic
run of ``test_acceptance.py`` used the C one."""

import pytest

from test_acceptance import *  # noqa: F403  (every test_* and helper of the suite)
from test_acceptance import make_corpus

pytestmark = pytest.mark.usefixtures("python_kernel_module")


@pytest.fixture(scope="module")
def random_corpus(python_kernel_module):
    """The corpus thinned by the Python kernel, once for the module."""
    return make_corpus()
