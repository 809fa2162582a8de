"""Fixtures shared across test modules."""

import hashlib
import os
import time
from types import SimpleNamespace
from typing import Dict, NamedTuple, Tuple

import pytest

from minplustree.distribution import (
    MassFunction,
    TruncationPolicy,
    _levels,
    point_mass_initial,
    write_distribution_csv,
    write_distribution_json,
)
from minplustree.series import LimitDiagnostics, diagnose


class CriticalChain(NamedTuple):
    diagnostics: Dict[int, LimitDiagnostics]
    seconds_to_60: float       # wall time of the evolution up to level 60, hashing excluded
    digests: Dict[Tuple[str, int], str]  # SHA-256 of the (format, level) payloads


# the payloads of `evolve --N N --kmax 1000000 --format F` that the chain hashes
CHAIN_PAYLOADS = {
    40: (("csv", write_distribution_csv), ("json", write_distribution_json)),
    60: (("csv", write_distribution_csv),),
}


class _Sha256Target:
    """A text target that keeps only the SHA-256 of the UTF-8 written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


@pytest.fixture(scope="session")
def critical_chain() -> CriticalChain:
    """One exact p = 1/2 evolution at cap 10^6 to level 80, diagnosed at the
    levels the tests read, with the time the first 60 levels took and the
    digests of the ``CHAIN_PAYLOADS``."""
    pol = TruncationPolicy(k_max=1_000_000)
    wanted = {10, 15, 20, 40, 60, 80}
    out, digests = {}, {}
    t0 = time.perf_counter()
    hashing = 0.0
    seconds_to_60 = float("nan")
    # the level loop of evolve; each yielded array is read before the next step
    for level, probs, tail in _levels(point_mass_initial(0.5), 80, pol):
        if level in wanted:
            m = MassFunction(probs, tail, level, 0.5)
            out[level] = diagnose(m)
            t = time.perf_counter()
            for fmt, writer in CHAIN_PAYLOADS.get(level, ()):
                target = _Sha256Target()
                writer(m, target)
                digests[fmt, level] = target.sha.hexdigest()
            hashing += time.perf_counter() - t
        if level == 60:
            seconds_to_60 = time.perf_counter() - t0 - hashing
    return CriticalChain(out, seconds_to_60, digests)


@pytest.fixture
def forks(monkeypatch):
    """The number of ``os.fork`` calls made in this process; ``simulate.run``
    is the only caller."""
    log = SimpleNamespace(count=0)
    fork = os.fork

    def counted():
        log.count += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return log


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
