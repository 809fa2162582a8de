import json
import os
import subprocess
import sys

import pytest

import minplustree


def test_all_names_resolve():
    # a stale __all__ entry breaks ``from minplustree import *``
    missing = [name for name in minplustree.__all__ if not hasattr(minplustree, name)]
    assert missing == []
    namespace: dict = {}
    exec("from minplustree import *", namespace)
    assert set(minplustree.__all__) <= set(namespace)


@pytest.fixture(scope="module")
def cli_import_modules():
    """The modules a fresh interpreter holds after ``import minplustree.cli``."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import json, sys, minplustree.cli\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy(cli_import_modules):
    # scipy costs over a second of import, and the library never uses it
    assert not any(m == "scipy" or m.startswith("scipy.") for m in cli_import_modules)


def test_cli_import_loads_no_process_pool(cli_import_modules):
    # the distribution writers import these only when they fork workers
    assert "minplustree.distribution" in cli_import_modules
    assert "multiprocessing" not in cli_import_modules
    assert "concurrent.futures.process" not in cli_import_modules
