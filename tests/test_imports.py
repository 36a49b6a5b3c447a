"""The package's runtime imports: the standard library and numpy only."""

import os
import subprocess
import sys
import types
from pathlib import Path

import balancenet

NEW_TOP_LEVEL_MODULES = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import balancenet\n"
    "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
)


def _fresh_import(script):
    # a fresh process shows what ``import balancenet`` pulls in, whatever the
    # tests imported
    src = str(Path(balancenet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_import_adds_only_numpy_beyond_the_standard_library():
    # numpy is the only dependency pyproject.toml declares
    out = _fresh_import(NEW_TOP_LEVEL_MODULES)
    assert "balancenet" in out
    assert set(out) - set(sys.stdlib_module_names) <= {"balancenet", "numpy"}


def test_import_loads_no_thread_pool():
    # simulation trials run in order; the pool's module costs import time
    out = _fresh_import("import sys\nimport balancenet\nprint('concurrent.futures' in sys.modules)\n")
    assert out == ["False"]


def test_all_lists_exactly_the_public_names():
    # every name in __all__ resolves and every public non-module attribute is
    # listed, so a removed public name cannot linger in one of the two
    public = {
        name
        for name, value in vars(balancenet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(balancenet.__all__)) == len(balancenet.__all__)
    assert set(balancenet.__all__) == public
