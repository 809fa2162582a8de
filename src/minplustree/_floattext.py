"""Blocks of CSV rows and JSON list entries with the exact bytes of ``float.__repr__``.

CPython's shortest repr does bignum arithmetic for every float.  Here the
shortest round-trip digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020) in numpy uint64 arithmetic.  A row of text is
a few uint64 words of little-endian characters in fixed places; a place that
a row does not use holds NUL, and one pass over a block's bytes drops the NULs.

A float's field is four words: a separator, the sign and a ``0.000``
prefix; then 18 characters of digits and a decimal point, and an exponent
such as ``e-308``.  Python's layout rule picks which characters show:
exponent form iff the decimal point position ``decpt`` is <= -4 or > 16, and
``.0`` on integral positional values.  0.0 is written by the same rule;
-0.0, subnormals, inf and nan take ``float.__repr__`` one value at a time.

A run of rows that repeat one row's fields is that text after each k's
digits, laid out in bytes, so it has no NUL to drop.  The rows of one digit
count share a page of 10^4 rows that holds the low four digits and the text
once; each piece of the run writes only its leading digits into it.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

import numpy as np

_U = np.uint64
_M32, _M63 = _U(0xFFFFFFFF), _U((1 << 63) - 1)
_K_MIN = -324  # smallest decimal exponent k of the g(k) table
_CHUNK = 8192  # values formatted at once; their temporaries peak near 1.9 MB
_NUL4, _LEAD4 = 10_000, 20_000  # 4-digit groups with trailing, leading zeros NUL
_NONE = 18  # point position of a float whose point is not among its digits


def _text_int(text: bytes, at: int = 0) -> int:
    """The little-endian integer of ``text`` placed at byte ``at``."""
    return int.from_bytes(text, "little") << 8 * at


def _span(lo: int, hi: int, byte: int = 0xFF) -> int:
    """``byte`` in bytes lo..hi - 1 of a little-endian integer."""
    return _text_int(bytes([byte]) * max(hi - lo, 0), lo)


def _words(values: list, n: int) -> np.ndarray:
    """Row j holds word j of each integer of ``values``, split in ``n`` uint64 words."""
    return np.array([[v >> 64 * j & (1 << 64) - 1 for v in values] for j in range(n)], dtype=_U)


class _Tables(NamedTuple):
    g: tuple  # g1 = g >> 63 and its 32-bit halves, the halves of g0 = g mod 2^63, by k
    groups: np.ndarray  # 4-digit groups as words: plain, trailing zeros NUL, leading zeros NUL
    keep: np.ndarray  # [j][p]: word j of the bytes before a point at byte p
    point: np.ndarray  # [j][p]: word j of the point at byte p
    moved: np.ndarray  # [j][p]: word j of the bytes after a point at byte p
    zeros: np.ndarray  # [j][s]: word j of zeros in the bytes before byte s
    exps: np.ndarray  # 0, then e-324 .. e+308 in bytes 2..6
    prefix: np.ndarray  # [n]: the first n characters of 0.000 in bytes 1..5


@functools.cache
def _tables() -> _Tables:
    """The tables, built on first use.

    g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 lies in (2^125, 2^126].
    """
    g1, g0 = [], []
    for k in range(_K_MIN, 293):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g = (num << -r if r < 0 else num) // (den << r if r > 0 else den) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    g1, g0 = np.array(g1, dtype=_U), np.array(g0, dtype=_U)
    # the characters of each 4-digit group, and the group with its trailing or
    # its leading zeros NUL
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    digits = digits.astype(np.uint8)
    zero = digits == ord("0")
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zero, axis=1)
    groups = np.concatenate([digits, digits * ~trailing, digits * ~leading])
    ps = range(_NONE + 1)
    return _Tables(
        (g1, g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32),
        groups.view("<u4")[:, 0].astype(_U),
        _words([_span(0, p) for p in ps], 3),
        _words([_text_int(b".", p) * (p < _NONE) for p in ps], 3),
        _words([_span(p + 1, _NONE) for p in ps], 3),
        _words([_span(0, s, ord("0")) for s in ps], 3),
        np.array([0] + [_text_int(f"e{e:+03d}".encode(), 2) for e in range(-324, 309)], dtype=_U),
        np.array([_text_int(b"0.000"[:n], 1) for n in range(6)], dtype=_U),
    )


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of a * b, from the 32-bit halves of a and b."""
    cross = a_lo * b_lo
    cross >>= _U(32)
    mid = a_hi * b_lo
    cross += mid & _M32
    cross += a_lo * b_hi
    cross >>= _U(32)
    mid >>= _U(32)
    mid += cross
    mid += a_hi * b_hi
    return mid


def _rop(g, cp):
    """Round to odd of g cp / 2^127, for g = g1 2^63 + g0 and cp < 2^63."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    z = g1 * cp
    z >>= _U(1)
    z += _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    v = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    v += z >> _U(63)
    z &= _M63
    z += _M63
    z >>= _U(63)
    v |= z
    return v


def _shortest(bits):
    """The shortest f and its exponent k with f 10^k nearest to each normal float
    ``bits`` among the decimals that read back as it; ties go to the even f.
    10^15 <= f < 10^17."""
    t = bits & _U((1 << 52) - 1)
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    q = bq - 1075
    c = t | _U(1 << 52)
    # the lower neighbour is nearer when c is a power of two above the subnormals
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    i = k - _K_MIN
    g = [a[i] for a in _tables().g]
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    # the rounding interval's ends, halfway to the neighbours, belong to it iff c is even
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + (c & _U(1))
    vbr = _rop(g, (cb + _U(2)) << h) - (c & _U(1))
    s = vb >> _U(2)
    # one digit shorter: u' = 10 floor(s / 10) or w' = u' + 10, if just one of them
    # lies in the rounding interval (s >= 100 always holds for a normal value)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    # otherwise u = s or w = s + 1: the one in the interval, else the nearer
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s + s + _U(1)) << _U(1)
    upper = (uin == win) & ((vb > mid) | ((vb == mid) & (s & _U(1) == 1))) | (win & ~uin)
    short = upin != wpin
    return short * (sp10 + wpin * _U(10)) + ~short * (s + upper), k


def _fields(x: np.ndarray, sep: bytes, out: np.ndarray) -> None:
    """Write ``sep`` and ``float.__repr__`` of each value of ``x`` into its row of ``out``,
    four uint64 words of characters; byte 31 is left NUL."""
    for lo in range(0, x.size, _CHUNK):
        chunk = np.ascontiguousarray(x[lo : lo + _CHUNK], dtype=float)
        for j, word in enumerate(_chunk_fields(chunk, sep)):
            out[lo : lo + _CHUNK, j] = word


def _chunk_fields(x: np.ndarray, sep: bytes) -> list:
    """The four words of each value's field, for at most ``_CHUNK`` values."""
    t = _tables()
    bits = x.view(_U)
    f, k = _shortest(bits)
    zero = bits == 0
    big = f >= _U(10**16)
    scale = 10 - 9 * big
    scale[zero] = 0
    f = f.view(np.int64) * scale  # 17 digits, or 0
    decpt = k + 16 + big
    decpt[zero] = 1
    # digits d0..d16 in groups a1 a2 b1 b2 c, trailing zeros NUL
    a = f // 10**9
    r = f - a * 10**9
    b = r // 10
    c = r - b * 10
    a1 = a // 10**4
    a2 = a - a1 * 10**4
    b1 = b // 10**4
    b2 = b - b1 * 10**4
    z4 = c == 0
    z3 = z4 & (b2 == 0)
    z2 = z3 & (b1 == 0)
    z1 = z2 & (a2 == 0)
    digits = [
        t.groups[a1 + _NUL4 * z1] | t.groups[a2 + _NUL4 * z2] << _U(32),
        t.groups[b1 + _NUL4 * z3] | t.groups[b2 + _NUL4 * z4] << _U(32),
        (~z4 * (c + ord("0"))).astype(_U),
    ]
    expo = (decpt <= -4) | (decpt > 16)
    pos = ~expo & (decpt > 0)
    several = ((digits[0] >> _U(8)) | digits[1] | digits[2]) != 0
    shown = pos * (decpt + 1)  # 1e15 shows 16 digits, then .0
    # the point follows the first digit in exponent form (unless it is the only
    # one) and decpt digits in positional form; 0.001 has it in its prefix
    p = _NONE - expo * several * (_NONE - 1) - pos * (_NONE - decpt)
    for j in range(3):
        digits[j] |= t.zeros[j][shown]
    after = [digits[0] << _U(8)] + [digits[j] << _U(8) | digits[j - 1] >> _U(56) for j in (1, 2)]
    sign = (bits >> _U(63)) * _U(ord("-"))
    words = [_text_int(sep) | (t.prefix[~(expo | pos) * (2 - decpt)] | sign) << _U(8 * len(sep))]
    words += [digits[j] & t.keep[j][p] | after[j] & t.moved[j][p] | t.point[j][p] for j in range(3)]
    words[3] |= t.exps[expo * (decpt + 324)]
    exponent = (bits >> _U(52)) & _U(0x7FF)
    for i in np.flatnonzero(((exponent == 0) | (exponent == 0x7FF)) & ~zero):
        text = (sep + float.__repr__(float(x[i])).encode()).ljust(32, b"\0")
        for j, word in enumerate(np.frombuffer(text, dtype="<u8")):
            words[j][i] = word
    return words


def _text(rows: np.ndarray) -> str:
    """The characters of ``rows`` without the NULs."""
    return rows.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")


def _int_words(v: np.ndarray, n: int) -> list:
    """The decimal digits of each uint64 in ``v`` as ``n`` words of 8, leading zeros NUL."""
    groups = []
    for _ in range(2 * n):
        q = v // _U(10**4)
        groups.append(v - q * _U(10**4))
        v = q
    table, leading, words = _tables().groups, np.ones(v.size, dtype=bool), []
    for hi, lo in zip(groups[::-2], groups[-2::-2]):
        word = table[hi + _U(_LEAD4) * leading]
        leading &= hi == 0
        words.append(word | table[lo + _U(_LEAD4) * leading] << _U(32))
        leading &= lo == 0
    return words


def csv_rows(lo: int, probs: np.ndarray, surv: np.ndarray) -> str:
    """The CSV rows ``k,pmf,survival`` for k = lo, lo + 1, ... of the two slices."""
    n = -(-len(str(lo + probs.size - 1)) // 8)  # words of k
    rows = np.empty((probs.size, n + 8), dtype=_U)
    for j, word in enumerate(_int_words(np.arange(lo, lo + probs.size, dtype=_U), n)):
        rows[:, j] = word
    _fields(probs, b",", rows[:, n : n + 4])
    _fields(surv, b",", rows[:, n + 4 :])
    rows[:, -1] |= _U(ord("\n") << 56)
    return _text(rows)


def numbered_rows(lo: int, hi: int, suffix: str) -> Iterator[str]:
    """``f"{k}{suffix}"`` for k = lo, lo + 1, ..., hi - 1, with lo >= 1, in pieces
    of at most 10^4 rows that cross no multiple of 10^4 and no power of ten.

    The rows of one digit count come from one uint8 page of 10^4 rows, built
    once: row r holds the low four digits of r (fewer below 10^4) and the
    suffix's bytes, so no place holds NUL.  Each piece writes its k // 10^4
    into the leading columns of its slice of the page.
    """
    tail = np.frombuffer(suffix.encode("ascii"), dtype=np.uint8)
    low = _tables().groups[:10_000].astype("<u4").view(np.uint8).reshape(-1, 4)
    width = 0
    while lo < hi:
        if len(str(lo)) != width:
            width = len(str(lo))
            n = min(width, 4)
            page = np.empty((10_000, width + tail.size), dtype=np.uint8)
            page[:, width - n : width] = low[:, 4 - n :]
            page[:, width:] = tail
        top = min(hi, lo - lo % 10_000 + 10_000, 10**width)
        rows = page[lo % 10_000 : lo % 10_000 + top - lo]
        for j, byte in enumerate(str(lo // 10_000).encode() if width > 4 else b""):
            rows[:, j] = byte  # a column at a time: one broadcast copy is about 5x slower
        yield rows.tobytes().decode("ascii")
        lo = top


def json_values(lo: int, probs: np.ndarray) -> str:
    """The ``probs`` list entries from k = lo on, comma-led unless k = 1."""
    rows = np.empty((probs.size, 4), dtype=_U)
    _fields(probs, b", ", rows)
    if lo == 1:
        rows[:1, 0] &= ~_U(0xFFFF)  # the first entry has no separator
    return _text(rows)
