import pytest

from slicethin import thinning


def _python_kernel():
    """Run the Python kernel in place of the C one.

    Skipped where the automatic choice is the Python kernel already (no
    compiler, or a failed build): the plain tests have run it there.
    """
    if thinning._native_subcycle() is None:
        pytest.skip("the automatic backend is the Python kernel")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thinning, "_native_subcycle", lambda: None)
        yield


# The same fixture for a test class and for a whole module.
python_kernel = pytest.fixture(scope="class")(_python_kernel)
python_kernel_module = pytest.fixture(scope="module")(_python_kernel)
