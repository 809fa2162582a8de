"""Fixtures shared across test modules."""

import time
from concurrent.futures import process
from types import SimpleNamespace
from typing import Dict, NamedTuple

import pytest

from minplustree.distribution import MassFunction, TruncationPolicy, _levels, point_mass_initial
from minplustree.series import LimitDiagnostics, diagnose


class CriticalChain(NamedTuple):
    diagnostics: Dict[int, LimitDiagnostics]
    seconds_to_60: float       # wall time of the evolution up to level 60


@pytest.fixture(scope="session")
def critical_chain() -> CriticalChain:
    """One exact p = 1/2 evolution at cap 10^6 to level 80, diagnosed at the
    levels the tests read, with the time the first 60 levels took."""
    pol = TruncationPolicy(k_max=1_000_000)
    wanted = {10, 15, 20, 40, 60, 80}
    out = {}
    t0 = time.perf_counter()
    seconds_to_60 = float("nan")
    # the level loop of evolve; each yielded array is read before the next step
    for level, probs, tail in _levels(point_mass_initial(0.5), 80, pol):
        if level in wanted:
            out[level] = diagnose(MassFunction(probs, tail, level, 0.5))
        if level == 60:
            seconds_to_60 = time.perf_counter() - t0
    return CriticalChain(out, seconds_to_60)


@pytest.fixture
def process_pools(monkeypatch):
    """The worker count of each process pool opened, in order, and the number
    of calls submitted to them; ``simulate.run`` is the only opener."""
    log = SimpleNamespace(opened=[], submitted=0)

    class Counted(process.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            log.opened.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, *args, **kwargs):
            log.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Counted)
    return log
