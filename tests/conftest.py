import pytest

from slicethin import _native


def _no_kernel():
    """Run the Python ``nd`` kernel, the numpy ZS/GH driver and the numpy
    component counter in place of the C kernels.

    Skipped where no C kernel loads (no compiler, or a failed build): the
    plain tests have run those paths there.
    """
    if _native.load() is None:
        pytest.skip("no C kernel loads here")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "load", lambda: None)
        yield


# The same fixture for a test class and for a whole module.
no_kernel = pytest.fixture(scope="class")(_no_kernel)
no_kernel_module = pytest.fixture(scope="module")(_no_kernel)
