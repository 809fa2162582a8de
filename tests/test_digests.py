"""SHA-256 of CLI payloads, held across changes.

The benchmark's evolve payloads are ``evolve --N N --kmax 1000000`` at
p = 1/2, hashed from the session chain of ``conftest.critical_chain``; a
few smaller ones, each an edge case of the writers, four ``bounds``
reports, the regimes sweep's nine reports and ``limit --N 40`` are written
by the CLI here.  Bytes above the direct convolution cutoff come from
numpy's FFT, so that table is keyed to the numpy version that recorded it,
and under any other version the test skips and names it.  The ``sample``
payloads are integer counts from Philox streams, the same on every host
and numpy version, and are not keyed.
A change that alters these outputs on purpose records the new digests and
says so.
"""

import hashlib

import numpy as np
import pytest

from conftest import CHAIN_PAYLOADS
from minplustree.cli import main

# SHA-256 of each chain payload by (format, N) and each CLI payload by its
# evolve arguments, by numpy version (recorded on x86-64)
_DIGESTS = {
    "2.4.6": {
        ("csv", 40): "06d1988241ee2a3cac5c8f086001c8e01f1be2fcdb25b257dbc9a85968ae686c",
        ("json", 40): "75c36df98370a038aea1a36b59cbf5109abbfc24ba7a0d4ce6cde6920ad5ad5f",
        ("csv", 60): "58cada8b29b185146894ceb130d9eb4a13eb11dc08acb73984c12a56e3fa51b0",
        "--N 30 --p 0.3 --kmax 200000":
            "5e93e2b5edde09cb1f1ac851df43cd1e35a9e297e36fc4b598d42dcb0dc7414b",
        "--N 18 --p 0.7 --kmax 4097":
            "c1fac86558648396d463dcb173949c0432c98e49858ae380bca91ec116b4af3f",
        "--N 20 --p 0.7 --kmax 5000":
            "99610875d8f767bd129c2445404de7f7cd66def6bca59c9d1382c10d36761b75",
        "--N 25 --kmax 1000003 --format json":
            "e849deb647941f43c8f0e5aa58b2220eb3eaa754ff38b59d52154f192fa9d6ca",
        "--N 12":
            "9a05d53519d8d7c4ed09ad33d2e16e9f2aede41f09c2986d0882631c5f343740",
        "--model upper --C 3.62 --beta 2 --N-range 10000:10100 --k-range 1:100000":
            "07ecbbe1314029ac5c3587590e18b3cf42947ba505eec37ab70e9980b21e9602",
        "--model lower --K 12000 --c 1 --N-range 10000:10050 --k-range 12000:200000":
            "ebafeb6d7bbf1b64ab679f54b1e97f3dab79f156e01d7936e77001b83dface21",
        "--model upper --N-range 30:36 --k-range 12293 --emit-grid":
            "03d8efcd4e54503e38b21514c73e40f1dab856b1404b0d5b5cbc3dd9c95aafb0",
        "--model lower --K 12000 --N-range 96:106 --k-range 12000:24293 --emit-grid":
            "7093e0a8522f6dc510aa3d469f3140a3ad784552a8f0692584ce91d4e8c94eb4",
        "--p 0.25 --tol 1e-12": "63bfc024d8a3f6425f32f49fe26de87455f50e52d4668b77f54b03d6541f8b5d",
        "--p 0.30 --tol 1e-12": "660b5dae9bd8ef06f3104f5c3faffbd3b1e6b2c77ad1fc1e1d1e8bf8acb30489",
        "--p 0.325 --tol 1e-12": "b4d5c4b9c70a72259c6ca6e7ee0d4c89016dcb83e0d8609f25e61658aba5ce55",
        "--p 0.35 --tol 1e-12": "e59dd0e7fce8d250ced040ebe62798d77e268b033a447f827345796d0d188693",
        "--p 0.375 --tol 1e-12": "5317a05a9f57bb94eaff6920a28efbb5549d46f51bf022ef63a6946fa1bc8175",
        "--p 0.40 --tol 1e-12": "c32ad3517b90849cee31edd6dfaa4258217967092f2e11611072ec3af660f25e",
        "--p 0.41 --tol 1e-12": "e954816cd742b2a1390eee07b6ed90af469e8a617c87e0bd91ecd964f57793b1",
        "--p 0.42 --tol 1e-12": "579045557e32d9ef1e6f521947aa1af314effd87bbf94c535f9a522c699543a8",
        "--p 0.7": "90ccafc4220d8c680c2d60aa7311e2d21cd17194c7758b6ab1163b9a3c7f8b8f",
        "--N 40": "d0bd7dbf0b45447bf8e9a21563ecf1e08bd6bbb4de9dea20f03e45ddb974c5c2",
    },
}

# SHA-256 of `sample --depth 10 --samples 1000000 --seed 1 --workers W` as CSV,
# by W: the montecarlo workload's payload at one and two runs, and 64
# substreams cut into one run per usable CPU
_SAMPLE_DIGESTS = {
    1: "767370b0054c99d55b75c6ff3551de45985d2a1fd88eb175751526a00a249a1d",
    2: "8fd6f9ddefc39b003b541c3a0d075c7feecb01ab458e14fd1ef0ea14067ffc18",
    64: "a2c5cde8d657c18512d08e8da2d396e526bd3df9ac662c1f49ddb160c0641677",
}

# evolve arguments of the payloads the CLI writes here
_CLI_PAYLOADS = [
    "--N 30 --p 0.3 --kmax 200000",  # the repeated run crosses from 5 to 6 digits
    "--N 18 --p 0.7 --kmax 4097",  # tail 0.352: the run's survival is the tail
    "--N 20 --p 0.7 --kmax 5000",
    "--N 25 --kmax 1000003 --format json",
    "--N 12",  # the full support
]

# bounds arguments of the reports the CLI writes here: the benchmark's two
# certify scans, whose levels all take rhs(G), and two grids whose levels
# convolve their own columns (the upper one crosses the junction at N = 35)
_BOUNDS_PAYLOADS = [
    "--model upper --C 3.62 --beta 2 --N-range 10000:10100 --k-range 1:100000",
    "--model lower --K 12000 --c 1 --N-range 10000:10050 --k-range 12000:200000",
    "--model upper --N-range 30:36 --k-range 12293 --emit-grid",
    "--model lower --K 12000 --N-range 96:106 --k-range 12000:24293 --emit-grid",
]

# regimes arguments of the regimes-sweep workload's reports: eight subcritical
# limit-curve solves and one supercritical classification
_REGIMES_PAYLOADS = [
    *[f"--p {p} --tol 1e-12" for p in ("0.25", "0.30", "0.325", "0.35", "0.375", "0.40",
                                        "0.41", "0.42")],
    "--p 0.7",
]

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


@pytest.mark.parametrize("args", _CLI_PAYLOADS)
def test_cli_payload_digest(tmp_path, args):
    _check_cli_digest(tmp_path, "evolve", args)


@pytest.mark.parametrize("args", _BOUNDS_PAYLOADS)
def test_bounds_payload_digest(tmp_path, args):
    _check_cli_digest(tmp_path, "bounds", args)


@pytest.mark.parametrize("args", _REGIMES_PAYLOADS)
def test_regimes_payload_digest(tmp_path, args):
    _check_cli_digest(tmp_path, "regimes", args)


def test_limit_payload_digest(tmp_path):
    _check_cli_digest(tmp_path, "limit", "--N 40")


@pytest.mark.parametrize("workers", sorted(_SAMPLE_DIGESTS))
def test_sample_payload_digest(tmp_path, workers):
    args = f"--depth 10 --samples 1000000 --seed 1 --workers {workers}"
    got = _cli_digest(tmp_path, "sample", args)
    assert got == _SAMPLE_DIGESTS[workers], f"sample {args}: payload SHA-256 {got}"


def _cli_digest(tmp_path, command, args):
    path = tmp_path / "payload"
    assert main([command, *args.split(), "--output", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_cli_digest(tmp_path, command, args):
    table = _DIGESTS.get(np.__version__)
    if table is None:
        pytest.skip(f"no digests recorded for numpy {np.__version__}")
    got = _cli_digest(tmp_path, command, args)
    assert got == table[args], f"{command} {args}: payload SHA-256 {got}"
