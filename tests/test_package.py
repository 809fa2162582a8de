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
    """The modules a fresh interpreter holds after ``import minplustree.cli``,
    then the modules that importing the float formatter adds beside itself,
    whether that left the formatter's tables built, and whether the
    sampler's subtree table was built."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = (
        "import json, sys, minplustree.cli\n"
        "cli = sorted(sys.modules)\n"
        "from minplustree import _floattext\n"
        "added = sorted(set(sys.modules) - set(cli) - {'minplustree._floattext'})\n"
        "built = _floattext._tables.cache_info().currsize > 0\n"
        "table = minplustree.cli.simulate._subtree_table.cache_info().currsize > 0\n"
        "print(json.dumps([cli, added, built, table]))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy(cli_import_modules):
    # scipy costs over a second of import, and the library never uses it
    assert not any(m == "scipy" or m.startswith("scipy.") for m in cli_import_modules[0])


def test_cli_import_loads_no_process_pool(cli_import_modules):
    # the distribution writers import these only when they fork workers;
    # concurrent.futures would pull in logging and traceback at start-up
    cli = cli_import_modules[0]
    assert "minplustree.distribution" in cli
    assert "multiprocessing" not in cli
    assert "concurrent.futures" not in cli
    assert "logging" not in cli


def test_cli_import_leaves_float_formatter_unloaded(cli_import_modules):
    # the writers import the formatter; it imports nothing more and builds its
    # tables on first use, so start-up pays for none of it
    cli, added, built, _ = cli_import_modules
    assert "minplustree._floattext" not in cli
    assert added == []
    assert not built


def test_cli_import_leaves_subtree_table_unbuilt(cli_import_modules):
    # the sampler builds its table of subtree roots on first use
    assert "minplustree.simulate" in cli_import_modules[0]
    assert not cli_import_modules[3]
