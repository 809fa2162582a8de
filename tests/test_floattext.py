"""The writers' float formatter against ``float.__repr__``."""

import numpy as np

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
        assert _floattext.numbered_rows(lo, hi, suffix) == want
