"""Building, caching and loading the C kernel, and falling back from it."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicethin
from slicethin import _native, baselines, pattern, thinning
from slicethin.metrics import evaluate
from slicethin.pattern import _MAX_DIMS, component_count
from slicethin.thinning import thin

from oracles import components_oracle, foreground_coords, gh_oracle, thin_oracle, zs_oracle

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")

# One random 3D case; the oracle's result is the skeleton every backend must give.
PATTERN = np.random.default_rng(5).random((6, 7, 5)) < 0.6
EXPECTED = thin_oracle(foreground_coords(PATTERN), PATTERN.shape)
PATTERN_2D = np.random.default_rng(6).random((9, 11)) < 0.7
EXPECTED_ZS = zs_oracle(foreground_coords(PATTERN_2D), PATTERN_2D.shape)
EXPECTED_COUNT = components_oracle(foreground_coords(PATTERN), PATTERN.shape)


def thinned(arr):
    sk, it = thin(arr)
    zs_sk, zs_it = baselines.zs_thin(PATTERN_2D)
    assert (foreground_coords(zs_sk), zs_it) == EXPECTED_ZS
    assert component_count(PATTERN) == EXPECTED_COUNT
    return foreground_coords(sk), it


@pytest.fixture
def kernel(monkeypatch, tmp_path):
    """Forget the loaded backend before and after the test; builds are
    cached under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _native.load.cache_clear()
    yield
    _native.load.cache_clear()


@needs_cc
def test_automatic_builds_native(kernel, tmp_path):
    # Where cc exists, the C kernel must really build, load and be used.
    assert _native.load() is not None
    assert thinned(PATTERN) == EXPECTED
    [library] = (tmp_path / "cache" / "slicethin").iterdir()
    assert library.name == _native._name(_native.SOURCE.read_bytes())


def test_changed_source_gets_a_new_name(monkeypatch):
    source = _native.SOURCE.read_bytes()
    name = _native._name(source)
    assert name.startswith("kernel-") and name.endswith(f"-{len(source)}.so")
    same_length = source.replace(b"#define MAX_DIMS 8", b"#define MAX_DIMS 9")
    assert same_length != source and len(same_length) == len(source)
    names = {name, _native._name(same_length), _native._name(source + b"\n")}
    monkeypatch.setattr(_native, "COMPILE", (*_native.COMPILE, "-g"))
    names.add(_native._name(source))
    assert len(names) == 4


def test_missing_compiler_falls_back(kernel, monkeypatch, tmp_path):
    monkeypatch.setattr(_native, "COMPILE", ("slicethin-no-such-cc", *_native.COMPILE[1:]))
    assert _native.load() is None
    assert thinned(PATTERN) == EXPECTED
    # The failed build leaves no temporary file behind.
    assert list((tmp_path / "cache" / "slicethin").iterdir()) == []


@needs_cc
def test_failed_compile_falls_back(kernel, monkeypatch, tmp_path):
    # cc runs and exits non-zero.
    monkeypatch.setattr(_native, "COMPILE", (*_native.COMPILE, "-fslicethin-no-such-flag"))
    assert _native.load() is None
    assert thinned(PATTERN) == EXPECTED
    assert list((tmp_path / "cache" / "slicethin").iterdir()) == []


@needs_cc
def test_temp_dir_when_cache_not_writable(kernel, monkeypatch, tmp_path):
    # A file where the cache directory should be: it cannot be created.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    (tmp_path / "file").write_text("")
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    private = tmp_path / f"slicethin-{os.getuid()}"
    assert _native.load() is not None
    assert private.stat().st_mode & 0o777 == 0o700
    assert len(list(private.glob("kernel-*.so"))) == 1


@needs_cc
def test_shared_temp_dir_refused(kernel, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    (tmp_path / "file").write_text("")
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    private = tmp_path / f"slicethin-{os.getuid()}"
    private.mkdir()
    private.chmod(0o777)  # another user could plant a library here
    assert _native.load() is None
    assert thinned(PATTERN) == EXPECTED
    assert list(private.iterdir()) == []


def test_no_user_ids_and_no_cache_falls_back(kernel, monkeypatch, tmp_path):
    # Without os.getuid there is no private temp directory to build in.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    (tmp_path / "file").write_text("")
    monkeypatch.delattr(os, "getuid")
    assert _native.load() is None
    assert thinned(PATTERN) == EXPECTED


def child_env(**env):
    """This environment plus ``env``, with this slicethin importable."""
    src = str(Path(slicethin.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, **env, "PYTHONPATH": path}


def run_python(code, **env):
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(**env), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# Counts the processes the kernel load starts, in a fresh interpreter.
COUNT_BUILDS = """
import subprocess
calls = []
run = subprocess.run
subprocess.run = lambda *a, **k: calls.append(a) or run(*a, **k)
from slicethin import _native
assert _native.load() is not None
print(len(calls))
"""


@needs_cc
def test_second_process_reuses_library(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path)}
    assert run_python(COUNT_BUILDS, **env) == ["1"]
    [library] = (tmp_path / "slicethin").iterdir()
    built = library.stat().st_mtime_ns
    assert run_python(COUNT_BUILDS, **env) == ["0"]
    assert library.stat().st_mtime_ns == built


@needs_cc
def test_cached_load_starts_no_compiler(tmp_path):
    # A load from the cache must not import subprocess, which only a build needs.
    code = ("import sys; from slicethin import _native; "
            "print(_native.load() is not None, 'subprocess' in sys.modules)")
    assert run_python(code, XDG_CACHE_HOME=str(tmp_path)) == ["True", "True"]  # builds
    assert run_python(code, XDG_CACHE_HOME=str(tmp_path)) == ["True", "False"]


@needs_cc
def test_cached_load_imports_no_hashlib(tmp_path):
    # The library is named with zlib, which numpy has loaded: a load from the
    # cache must not add hashlib's few milliseconds to every CLI call.
    code = ("import sys, numpy, slicethin.cli; before = set(sys.modules); "
            "from slicethin import _native; assert _native.load() is not None; "
            "print('loaded', *sorted(set(sys.modules) - before))")
    run_python(code, XDG_CACHE_HOME=str(tmp_path))  # builds
    added = run_python(code, XDG_CACHE_HOME=str(tmp_path))
    assert added[0] == "loaded"
    assert not {"hashlib", "_hashlib", "_blake2"} & set(added), added


@needs_cc
def test_concurrent_builds_share_one_library(tmp_path):
    # Three cold processes at once: each builds to its own temporary file and
    # renames it into place, so each loads a whole library.
    env = child_env(XDG_CACHE_HOME=str(tmp_path))
    code = "from slicethin import _native; assert _native.load() is not None"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(3)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    assert [f.name[:7] for f in (tmp_path / "slicethin").iterdir()] == ["kernel-"]


def test_kernel_sized_for_max_dims():
    # Above its MAX_DIMS the C kernel deletes nothing, so thin would hand
    # back an unthinned pattern; its plane buffer must hold a k = MAX_DIMS plane.
    defines = dict(re.findall(r"^#define (\w+) (\d+)", _native.SOURCE.read_text(), re.M))
    assert int(defines["MAX_DIMS"]) == _MAX_DIMS
    assert int(defines["MAX_PLANE"]) == 3 ** (_MAX_DIMS - 1)


def test_loaded_kernels_take_every_input(monkeypatch):
    # Where a library loads, its C kernels run on every pattern: a Python or
    # numpy twin runs only where none loads, whatever the size or the rank.
    if _native.load() is None:
        pytest.skip("no C kernel loads here")

    def twin(*args):
        raise AssertionError("a Python or numpy twin ran beside a loaded library")

    monkeypatch.setattr(thinning, "_python_subcycle", twin)
    monkeypatch.setattr(baselines, "_numpy_sweep", twin)
    monkeypatch.setattr(pattern, "_numpy_components", twin)
    assert thinned(PATTERN) == EXPECTED
    gh_sk, gh_it = baselines.gh_thin(PATTERN_2D)
    expected_gh = gh_oracle(foreground_coords(PATTERN_2D), PATTERN_2D.shape)
    assert (foreground_coords(gh_sk), gh_it) == expected_gh
    eight = np.random.default_rng(8).random((3,) * 8) < 0.6
    for arr in (PATTERN_2D, PATTERN, eight):
        sk, it = thin(arr)
        assert evaluate(arr, sk, it).area_skeleton < np.count_nonzero(arr)


def test_import_loads_no_kernel():
    # Import must not load numpy or scipy, nor what only a kernel load needs
    # (subprocess, hashlib), nor the library itself, which would slow every
    # CLI start: numpy is imported where an array is built or taken.
    for module in ("slicethin", "slicethin.baselines", "slicethin.pattern", "slicethin.cli"):
        loaded, *added = run_python(
            f"import sys; before = set(sys.modules); import {module}; "
            "added = sorted(set(sys.modules) - before); from slicethin import _native; "
            "print(_native.load.cache_info().currsize, *added)"
        )
        assert loaded == "0", module
        for heavy in ("numpy", "scipy", "subprocess", "hashlib"):
            assert heavy not in added, (module, heavy)


# Runs every CLI command on a disc and an annulus in the working directory,
# with scipy blocked when argv[1] is "block", and numpy too for every thin,
# compare and metrics call where the C kernels load (their twins import it);
# prints exit codes, stdout and the files written.
CLI_RUN = """
import contextlib, io, json, sys
from pathlib import Path
block = sys.argv[1] == "block"
if block:
    sys.modules["scipy"] = None  # every import of scipy now fails
import numpy as np
from slicethin import _native
from slicethin.cli import main
from slicethin.formats import write_pattern
yy, xx = np.mgrid[:30, :30]
r2 = (yy - 14.5) ** 2 + (xx - 14.5) ** 2
write_pattern("annulus.pbm", (r2 < 13**2) & (r2 >= 5**2))
argvs = [["gen", "--shape", "disc", "--radius", "9", "--grid", "25x25", "--output", "disc.pbm"]]
for name in ("disc", "annulus"):
    for algo in ("nd", "zs", "gh"):
        argvs.append(["thin", "--algo", algo, "--input", f"{name}.pbm",
                      "--output", f"{name}-{algo}.pbm", "--metrics"])
argvs += [["compare", "--input", "disc.pbm", "annulus.pbm", "--algos", "zs,gh,nd"],
          ["metrics", "--input", "annulus.pbm", "--skeleton", "annulus-gh.pbm",
           "--iterations", "4", "--algorithm", "gh"]]
runs = []
for argv in argvs:
    out = io.StringIO()
    if block and argv[0] != "gen" and _native.load() is not None:
        sys.modules["numpy"] = None  # every import of numpy now fails
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.modules["numpy"] = np
    runs.append([argv, code, out.getvalue()])
files = {p.name: p.read_text() for p in sorted(Path().iterdir())}
print(json.dumps({"runs": runs, "files": files,
                  "scipy": sys.modules.get("scipy") is not None}))
"""


def test_cli_needs_no_scipy(tmp_path):
    results = []
    for mode in ("block", "allow"):
        (tmp_path / mode).mkdir()
        done = subprocess.run([sys.executable, "-c", CLI_RUN, mode], cwd=tmp_path / mode,
                              env=child_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout))
    blocked, allowed = results
    assert blocked == allowed
    assert not allowed["scipy"]
    assert [code for _, code, _ in allowed["runs"]] == [0] * 9
    assert len(allowed["files"]) == 8


# Counts the source hashes and library loads of one process that runs every kernel.
COUNT_LOADS = """
import ctypes
import numpy as np
from slicethin import _native, component_count, evaluate, gh_thin, thin, zs_thin
calls = []
library, cdll = _native._library, ctypes.CDLL
_native._library = lambda: calls.append("hash") or library()
ctypes.CDLL = lambda *a, **k: calls.append("load") or cdll(*a, **k)
disc = np.add.outer(np.arange(-9, 10) ** 2, np.arange(-9, 10) ** 2) < 64
for _ in range(2):
    zs_thin(disc), gh_thin(disc), thin(disc), thin(disc[None])
    component_count(disc), evaluate(disc, thin(disc)[0], 1)
print(*sorted(calls))
"""


@needs_cc
def test_one_load_per_process(tmp_path):
    assert run_python(COUNT_LOADS, XDG_CACHE_HOME=str(tmp_path)) == ["hash", "load"]
