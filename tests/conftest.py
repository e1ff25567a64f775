import pytest

from slicethin import baselines, pattern, thinning


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


@pytest.fixture(scope="class")
def numpy_baselines():
    """Run the numpy ZS/GH driver in place of the C sweep.

    Skipped where the automatic choice is the numpy driver already.
    """
    if baselines._native_sweep() is None:
        pytest.skip("the automatic ZS/GH backend is numpy")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_native_sweep", lambda: None)
        yield


@pytest.fixture(scope="class")
def numpy_components():
    """Count components with numpy in place of the C run fill.

    Skipped where the automatic component counter is numpy already.
    """
    if pattern._native_components() is None:
        pytest.skip("the automatic component counter is numpy")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pattern, "_native_components", lambda: None)
        yield
