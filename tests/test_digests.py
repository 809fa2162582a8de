"""SHA-256 of the evolve payloads the benchmark writes, held across changes.

The payloads are ``evolve --N N --kmax 1000000`` at p = 1/2, hashed from the
session chain of ``conftest.critical_chain``.  Their bytes above the direct
convolution cutoff come from numpy's FFT, so the table is keyed to the numpy
version that recorded it, and under any other version the test skips and
names it.  A change that alters these outputs on purpose records the new
digests and says so.
"""

import numpy as np
import pytest

from conftest import CHAIN_PAYLOADS

# SHA-256 of each (format, N) payload, by numpy version (recorded on x86-64)
_DIGESTS = {
    "2.4.6": {
        ("csv", 40): "06d1988241ee2a3cac5c8f086001c8e01f1be2fcdb25b257dbc9a85968ae686c",
        ("json", 40): "75c36df98370a038aea1a36b59cbf5109abbfc24ba7a0d4ce6cde6920ad5ad5f",
        ("csv", 60): "58cada8b29b185146894ceb130d9eb4a13eb11dc08acb73984c12a56e3fa51b0",
    },
}

_PAYLOADS = [(fmt, level) for level, writers in CHAIN_PAYLOADS.items() for fmt, _ in writers]


@pytest.mark.parametrize("fmt, level", _PAYLOADS, ids=[f"{f}-N{n}" for f, n in _PAYLOADS])
def test_evolve_payload_digest(critical_chain, fmt, level):
    table = _DIGESTS.get(np.__version__)
    if table is None:
        pytest.skip(f"no digests recorded for numpy {np.__version__}")
    got = critical_chain.digests[fmt, level]
    assert got == table[fmt, level], (
        f"evolve --N {level} --kmax 1000000 --format {fmt}: payload SHA-256 {got}"
    )
