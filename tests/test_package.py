import ast
import json
import os
import subprocess
import sys

import pytest

import minplustree


_PACKAGE = os.path.dirname(os.path.abspath(minplustree.__file__))

# the numpy calls that compute a convolution; one method owns them all
_CONVOLUTION_CALLS = {"np.fft.rfft", "np.fft.irfft", "np.convolve",
                      "numpy.fft.rfft", "numpy.fft.irfft", "numpy.convolve"}


def _modules():
    """(name, parsed source) of each module in the package."""
    for name in sorted(os.listdir(_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(_PACKAGE, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def _callers(calls):
    """The qualified name of each function in the package that calls one of
    ``calls``, with its module, once per call."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) in calls:
                found.append(f"{module}:{'.'.join(scope) or '<module>'}")
            visit(child, module, scope)

    for module, tree in _modules():
        visit(tree, module, [])
    return found


def test_one_function_convolves():
    # every convolution, in evolve, the bound scans and recurrence_rhs, runs
    # through one method, which alone manages the FFT buffers
    callers = _callers(_CONVOLUTION_CALLS)
    owner = "distribution:_ConvBlock.convolve"
    assert owner in callers
    others = sorted(set(callers) - {owner})
    assert others == [], f"convolution computed outside {owner}: {', '.join(others)}"


def _imported(tree):
    """The absolute module names that a parsed module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_one_function_forks():
    # the sampler's runs fork and pipe their counts back without multiprocessing
    # or concurrent.futures, which cost 15-18 ms of import and a manager thread
    pools = sorted({module for module, tree in _modules() for name in _imported(tree)
                    if name.split(".")[0] in ("multiprocessing", "concurrent")})
    assert pools == [], f"process pool imported by {', '.join(pools)}"
    owner = "simulate:_fork_map"
    callers = _callers({"os.fork", "os.forkpty"})
    assert owner in callers
    others = sorted(set(callers) - {owner})
    assert others == [], f"os.fork called outside {owner}: {', '.join(others)}"


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
    # the library imports neither pool module; concurrent.futures would pull
    # in logging and traceback at start-up
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
