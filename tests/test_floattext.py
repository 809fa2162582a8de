"""The writers' float formatter against ``float.__repr__``."""

import hashlib

import numpy as np
import pytest

from minplustree import _floattext


def _mismatch(x):
    """The first value of ``x`` that ``json_values`` writes unlike ``float.__repr__``,
    in hex, and the text written for it; None if there is none."""
    got = _floattext.json_values(1, x)
    if got == ", ".join(map(float.__repr__, x.tolist())):
        return None
    for value, text in zip(x.tolist(), got.split(", ")):
        if text != repr(value):
            return value.hex(), text
    return "the values are joined wrongly"


def test_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(18).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    x = bits.view(float)
    x = x[np.isfinite(x)]  # every exponent, both signs, subnormals too
    assert [m for m in map(_mismatch, np.array_split(x, 8)) if m is not None] == []


def test_matches_repr_on_edge_values():
    integers = np.arange(100_001, dtype=float)
    # the powers of two include the lowest of each binade, whose lower neighbour
    # is nearer (the irregular spacing)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    edges = [
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e15, 1e16, 9999999999999998.0, 1e22, 1e23,
        1e-4, 9.999999999999999e-05, 0.1, 0.3, 2 / 3, 123.456, 1e-5,
        float("inf"), float("nan"),
    ]
    values = np.concatenate([integers, twos, tens, edges])
    assert _mismatch(np.concatenate([values, -values])) is None


def test_csv_rows_match_repr_rows_across_digit_counts():
    x = np.random.default_rng(5).random(40) ** 30  # positional and exponent forms
    x[::7] = 0.0
    for lo in (1, 9_990, 99_999_990, 10**16 - 20):
        rows = zip(range(lo, lo + 40), x.tolist(), x[::-1].tolist())
        want = "".join(f"{k},{a!r},{b!r}\n" for k, a, b in rows)
        assert _floattext.csv_rows(lo, x, x[::-1]) == want


def test_numbered_rows_across_digit_counts():
    suffix = ",0.0,2.642018284009411e-14\n"
    spans = [(1, 12), (5, 5)]
    for edge in (100_000, 1_000_000, 10_000_000):
        spans += [(edge - 3, edge + 3), (edge - 1, edge), (edge, edge + 1)]
    for lo, hi in spans:
        want = "".join(f"{k}{suffix}" for k in range(lo, hi))
        assert "".join(_floattext.numbered_rows(lo, hi, suffix)) == want


@pytest.mark.parametrize("suffix", ["\n", ",0.0,2.642018284009411e-14\n"])
@pytest.mark.parametrize("lo, hi", [
    (7, 7), (1, 12), (9_995, 10_005), (99_995, 100_005),
    (10**8 - 3, 10**8 + 3),  # k // 10^4 goes from 9999 to 10000
    (12_345, 43_210), (1, 20_003),  # unaligned, with whole pieces between
])
def test_numbered_rows_pieces(lo, hi, suffix):
    pieces = list(_floattext.numbered_rows(lo, hi, suffix))
    assert "".join(pieces) == "".join(f"{k}{suffix}" for k in range(lo, hi))
    k = lo
    for piece in pieces:
        last = k + piece.count("\n") - 1
        # at most 10^4 rows, within one multiple of 10^4 and one digit count
        assert k <= last < k + 10_000
        assert k // 10_000 == last // 10_000 and len(str(k)) == len(str(last))
        k = last + 1
    assert k == hi


def _groups_oracle():
    """The 4-digit group words built one group at a time: plain, then trailing
    zeros NUL, then leading zeros NUL."""
    groups = [f"{i:04d}".encode() for i in range(10_000)]
    groups += [s.rstrip(b"0").ljust(4, b"\0") for s in groups[:10_000]]
    groups += [s.lstrip(b"0").rjust(4, b"\0") for s in groups[:10_000]]
    return [_floattext._text_int(s) for s in groups]


# SHA-256 of the little-endian uint64 words of each other table (of each array
# of the tuple g, in order); integer tables, the same on every host
_TABLE_DIGESTS = {
    "g": "b99aef57446fdc9e0790b01c2c4a774fcb0ff96a0a74ab46533cb5638bf2b49f",
    "keep": "e396a6e44ee8f8898ca2ef84bdc5ea7c68309a223fce4611f653a7064e8f59b1",
    "point": "65c95644b4dd87bd6acc8c96ae6d1fc61e441284ff4dfe0a57c06d7eea84893a",
    "moved": "e943c25519a260eb131c9481005e62d2d243d8cba22da43f65c0f037b990590e",
    "zeros": "76931b65cb034d4815dc867f8fe02df197de762122636e00a025d87d204005ff",
    "exps": "e182463c2b22e615169e6dcf0451bd5f4f1079f94910a4270523d0c0c01cb5cb",
    "prefix": "f9d856ca782e82bcc1cdb7c9f445a8a209705a1c8d7f26c4318345fa13868092",
}


def test_tables_match_their_oracles():
    tables = _floattext._tables()
    assert tables.groups.dtype == np.uint64
    assert tables.groups.tolist() == _groups_oracle()
    got = {}
    for name in _TABLE_DIGESTS:
        arrays = getattr(tables, name)
        sha = hashlib.sha256()
        for a in arrays if isinstance(arrays, tuple) else (arrays,):
            assert a.dtype == np.uint64
            sha.update(a.astype("<u8").tobytes())
        got[name] = sha.hexdigest()
    assert got == _TABLE_DIGESTS
