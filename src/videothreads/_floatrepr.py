"""``float.__repr__`` for whole float64 arrays, computed with numpy.

``rows(values, lead)`` returns one ``uint8`` row per element. With its NUL
bytes dropped, row ``i`` is ``float.__repr__(values[i])``, or ``NaN``,
``Infinity`` or ``-Infinity`` as JSON spells the non-finite values; the
first ``lead`` columns are left NUL for the caller. ``dataio``'s JSON
writer calls it once per chunk of a float64 matrix's rows, never on more
than ``CHUNK`` elements, and fills the lead columns with the JSON ahead of
each element: a comma and indent, or, for a row's first element, the
bracket closing the row before and the row's own "[", where it cuts the
chunk's text into rows.

Digits. Ryū (Adams, "Ryū: fast float-to-string conversion", PLDI 2018)
finds, among the shortest decimals that read back as the same double, the
one nearest to it, ties to even: the digits CPython's dtoa prints for
``repr``. Its steps are fixed-width integer arithmetic, so they run here
over integer arrays. Ryū's 126-bit power-of-5 multipliers are held as five
28-bit limbs, one contiguous table per limb indexed by the biased exponent:
a limb product, and the sum of two, fit in a signed 64-bit integer without
splitting. The three bounds of the rounding interval, ``(4 m + d) * mul``
for d = 0, 2 and -1 or -2, share the one product ``4 m * mul``.

Layout. CPython prints the digits with the decimal point after ``decpt``
of them positionally when -4 < decpt <= 16 (``0.0001``, ``1e15`` as
``1000000000000000.0``) and as ``d.ddde±XX`` otherwise (``1e-05``,
``1e+16``). Each element's text is built as a little-endian 24-byte string
in three ``uint64`` words: the 17 digit characters padded with "0", the
point inserted by masks and a one-byte shift, the tail cut off, then the
sign and any "0.000" prefix shifted in front.
"""

from __future__ import annotations

import functools
import mmap

import numpy as np

CHUNK = 16384  # elements per call: a few MB of temporaries
WIDTH = 24  # the longest repr, "-1.2345678901234567e-308", has 24 characters

_DIGITS = 17  # a shortest repr never needs more significant digits
_ZERO, _MINUS = ord("0"), ord("-")
_RADIX = 28  # bits per limb: a limb product and a sum of two fit in 63 bits
_LIMB_MASK = (1 << _RADIX) - 1
_EXP_BITS = np.uint64(0x7FF << 52)
_ONE_BITS = np.float64(1.0).view(np.uint64)
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)  # up to 2^64
_POINTS = np.uint64(0x2E2E2E2E2E2E2E2E)
# _PREFIX[6 * negative + z]: "-" if negative, then for z > 0 "0." and z - 2 zeros
_PREFIX = np.array([int.from_bytes(sign + (b"0." + b"0" * (z - 2) if z else b""), "little")
                    for sign in (b"", b"-") for z in range(6)], dtype=np.uint64)
# _LOW[w][k]: word w of the mask that keeps the first k bytes of 24
_LOW = np.array([[(1 << 8 * min(max(k - 8 * w, 0), 8)) - 1 for k in range(WIDTH + 1)]
                 for w in range(3)], dtype=np.uint64)
_SPECIAL = np.zeros((3, WIDTH), np.uint8)  # JSON's NaN, Infinity, -Infinity
for _row, _text in zip(_SPECIAL, (b"NaN", b"Infinity", b"-Infinity")):
    _row[:len(_text)] = np.frombuffer(_text, np.uint8)


class _Tables:
    """Ryū's per-exponent constants, one row per quantity, indexed by the
    biased exponent 0..2046 and built from exact Python integers.

    The rows live in an anonymous memory map, not on the malloc heap: built
    during a run's first write, heap tables would sit above the memory the
    run frees afterwards and keep it resident (``long_video``'s peak RSS
    rose by about 4 MB that way)."""

    def __init__(self):
        rows = [[] for _ in range(10)]
        limbs, shift, e10, tz_mask, small_q, pow5 = rows[:5], *rows[5:]
        for biased in range(2047):
            e2 = (biased if biased else 1) - 1023 - 52 - 2
            if e2 >= 0:
                q = (e2 * 78913 >> 18) - (e2 > 3)  # about log10(2^e2)
                bits = (5**q).bit_length()
                mul = (1 << (bits - 1 + 125)) // 5**q + 1
                j = -e2 + q + 125 + bits - 1
                e10.append(q)
                tz_mask.append(2**64 - 1)  # decided by the 5-adic test instead
                pow5.append(5**q if q <= 21 else 0)
                small_q.append(0)
            else:
                q = (-e2 * 732923 >> 20) - (-e2 > 1)  # about log10(5^-e2)
                bits = (5 ** (-e2 - q)).bit_length()
                mul = 5 ** (-e2 - q) >> (bits - 125) if bits >= 125 else 5 ** (-e2 - q) << (125 - bits)
                j = q - (bits - 125)
                e10.append(q + e2)
                # the bound 4m * 5^-e2 / 2^q is an integer iff 4m has q trailing zero bits
                tz_mask.append(0 if q <= 1 else (1 << q) - 1 if q < 63 else 2**64 - 1)
                pow5.append(0)
                small_q.append(int(q <= 1))
            for b in range(5):
                limbs[b].append(mul >> (_RADIX * b) & (1 << _RADIX) - 1)
            shift.append(j - 4 * _RADIX)  # j lies in [118, 125]
        block = np.frombuffer(mmap.mmap(-1, len(rows) * 2047 * 8), np.uint64).reshape(len(rows), 2047)
        for row, values in zip(block, rows):
            row[:] = np.array(values, dtype=np.int64 if min(values) < 0 else np.uint64)
        signed = block.view(np.int64)
        self.limbs, self.shift, self.e10 = list(signed[:5]), signed[5], signed[6]
        self.tz_mask, self.small_q, self.pow5 = block[7], block[8], block[9]


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _bounds(bits: np.ndarray, tables: _Tables):
    """Ryū's scaled interval ``(vr, vp, vm)`` of each finite nonzero double,
    flags saying whether ``vr`` and ``vm`` lost only zero digits in the
    scaling, the evenness of the mantissa, and the decimal exponent."""
    biased = (bits >> np.uint64(52)).astype(np.intp) & 0x7FF
    fraction = bits & np.uint64((1 << 52) - 1)
    m2 = fraction | (biased != 0).astype(np.uint64) << np.uint64(52)
    even = (m2 & np.uint64(1)) == 0
    mm_shift = (fraction != 0) | (biased <= 1)  # 0: the gap below is half the gap above
    mv = m2 << np.uint64(2)

    # 4 m2 * mul in six 28-bit columns; two limbs of 4 m2 times five of mul
    m0, m1 = (mv & _LIMB_MASK).view(np.int64), (mv >> np.uint64(_RADIX)).view(np.int64)
    w = [np.take(limb, biased) for limb in tables.limbs]
    columns = [m0 * w[0]] + [m0 * w[c] + m1 * w[c - 1] for c in range(1, 5)] + [m1 * w[4]]
    shift = np.take(tables.shift, biased)

    def scaled(delta):  # (4 m2 + delta) * mul >> j, carrying the columns
        total = columns[0] if delta is None else columns[0] + delta * w[0]
        for c in range(1, 5):
            column = columns[c] if delta is None else columns[c] + delta * w[c]
            total = column + (total >> _RADIX)
        top = columns[5] + (total >> _RADIX)
        return ((top << (_RADIX - shift)) + ((total & _LIMB_MASK) >> shift)).view(np.uint64)

    vr, vp, vm = scaled(None), scaled(2), scaled(-1 - mm_shift.astype(np.int64))
    # is vr (vm) exactly the scaled bound, the scaling having dropped only zeros?
    vr_tz = (mv & np.take(tables.tz_mask, biased)) == 0
    small = np.take(tables.small_q, biased) != 0  # e2 < 0 and q <= 1
    vm_tz = small & even & mm_shift
    vp = vp - (small & ~even)
    five = np.flatnonzero(np.take(tables.pow5, biased))
    if five.size:  # doubles of at least 2^54 whose bounds may be multiples of 5^q
        p5, mv5, even5 = tables.pow5[biased[five]], mv[five], even[five]
        on_v = mv5 % np.uint64(5) == 0
        vr_tz[five] = on_v & (mv5 % p5 == 0)
        vm_tz[five] = ~on_v & even5 & ((mv5 - np.uint64(1) - mm_shift[five]) % p5 == 0)
        vp[five] -= ~on_v & ~even5 & ((mv5 + np.uint64(2)) % p5 == 0)
    return (vr, vp, vm, vr_tz, vm_tz, even), np.take(tables.e10, biased)


def _shortest(vr, vp, vm, vr_tz, vm_tz, even):
    """Ryū's digit removal: drop the last digit of ``vr``, ``vp`` and ``vm``
    while ``vp`` and ``vm`` still differ above it, then round ``vr``. Returns
    the digits and how many were dropped."""
    ten = np.uint64(10)
    removed = np.zeros(vr.size, np.int64)  # count the digits, then divide once
    vp10, vm10 = vp // ten, vm // ten
    while True:
        go = vp10 > vm10  # once false, false for every further digit
        if not go.any():
            break
        removed += go
        vp10, vm10 = vp10 // ten, vm10 // ten
    below = np.take(_POW10, np.maximum(removed - 1, 0))
    kept = vr // below  # all but the last dropped digit gone
    kept10 = kept // ten
    last = np.where(removed > 0, kept - kept10 * ten, 0)
    vr_tz &= vr == kept * below  # the digits dropped before the last were 0
    vr = np.where(removed > 0, kept10, vr)
    scale = np.take(_POW10, removed)
    vm_dropped = vm
    vm = vm // scale
    vm_tz &= vm * scale == vm_dropped

    at = np.flatnonzero(vm_tz)  # the lower bound is exact: drop its zeros too
    while at.size:
        vm10 = vm[at] // ten
        zero = vm[at] == vm10 * ten
        at, vm10 = at[zero], vm10[zero]
        vr10 = vr[at] // ten
        vr_tz[at] &= last[at] == 0
        last[at] = vr[at] - vr10 * ten
        vr[at], vm[at] = vr10, vm10
        removed[at] += 1

    # round half to even on an exact tie; take vr + 1 when vr fell out of bounds
    last[vr_tz & (last == 5) & ((vr & np.uint64(1)) == 0)] = 4
    up = ((vr == vm) & (~even | ~vm_tz)) | (last >= 5)
    return vr + up, removed


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``x < 10^8`` as ASCII bytes, most
    significant first in little-endian memory order, by halving the digit
    groups in place (4+4, 2+2+2+2, 1+...+1)."""
    high = x // np.uint64(10000)
    v = high | (x - high * np.uint64(10000)) << np.uint64(32)
    t = (v * np.uint64(10486)) >> np.uint64(20) & np.uint64(0x0000007F0000007F)  # lanes // 100
    v = t | (v - t * np.uint64(100)) << np.uint64(16)
    t = (v * np.uint64(103)) >> np.uint64(10) & np.uint64(0x000F000F000F000F)  # lanes // 10
    v = t | (v - t * np.uint64(10)) << np.uint64(8)
    return v | np.uint64(0x3030303030303030)


def _shift(words: list, count) -> list:
    """Little-endian byte strings held as three words each, moved ``count``
    (< 8) bytes towards their end; NUL bytes move in at the front."""
    bits = np.uint64(8) * np.asarray(count, dtype=np.uint64)
    back = np.uint64(64) - bits  # a shift by 64 yields 0
    return [words[0] << bits] + [words[k] << bits | words[k - 1] >> back for k in (1, 2)]


def _low(count: np.ndarray) -> list:
    """The three word masks that keep the first ``count`` bytes."""
    return [np.take(table, count) for table in _LOW]


def rows(values: np.ndarray, lead: int = 0) -> np.ndarray:
    """The ``(n, lead + WIDTH)`` uint8 text matrix of the float64 array
    ``values`` (n elements, taken in C order); see the module docstring.
    ``lead`` must be a multiple of 8."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    n = bits.size
    finite = (bits & _EXP_BITS) != _EXP_BITS
    regular = finite & ((bits << np.uint64(1)) != 0)
    # zeros and non-finite values stand in as 1.0, then get the digit 0
    work = bits if regular.all() else np.where(regular, bits, _ONE_BITS)
    bounds, e10 = _bounds(work, _tables())
    digits, removed = _shortest(*bounds)
    digits[~regular] = 0
    count = np.searchsorted(_POW10[1:_DIGITS], digits, side="right") + 1
    decpt = np.where(regular, count + e10 + removed, 1)
    positional = (decpt > -4) & (decpt <= 16)
    fraction = positional & (decpt <= 0)  # 0.ddd, 0.0ddd, ...

    # the 17 digit characters, left-aligned and padded with "0"
    left = digits * np.take(_POW10, _DIGITS - count)
    high = left // np.uint64(10**9)
    low = left - high * np.uint64(10**9)
    low10 = low // np.uint64(10)
    words = [_ascii8(high), _ascii8(low10), low - low10 * np.uint64(10) + np.uint64(_ZERO)]
    # the point after the integer digits, or after the first digit of d.ddde±XX
    point = np.where(positional, np.where(fraction, _DIGITS, decpt), 1)
    before, through = _low(point), _low(point + 1)
    words = [w & b | s & ~t | (b ^ t) & _POINTS
             for w, s, b, t in zip(words, _shift(words, 1), before, through)]
    length = np.where(positional, np.maximum(count, decpt + 1) + 1, count + (count > 1))
    length = np.where(fraction, count, length)
    words = [w & m for w, m in zip(words, _low(length))]
    # in front: "-", then "0." and as many zeros as decpt is below 0
    negative = (bits >> np.uint64(63)).astype(np.intp)  # non-finite rows are replaced below
    zeros = np.where(fraction, 2 - decpt, 0)
    words = _shift(words, negative + zeros)
    words[0] |= np.take(_PREFIX, 6 * negative + zeros)
    length += negative + zeros

    out = np.zeros((n, lead + WIDTH), np.uint8)
    columns = out.view("<u8")  # one word per 8 columns, as lead is a multiple of 8
    for k, word in enumerate(words):
        columns[:, lead // 8 + k] = word
    if not positional.all():  # "e", the sign and two or three digits
        scientific = np.flatnonzero(~positional)
        exponent = decpt[scientific] - 1
        magnitude = np.abs(exponent)
        at = lead + length[scientific]
        three = magnitude >= 100
        out[scientific, at] = ord("e")
        out[scientific, at + 1] = np.where(exponent < 0, _MINUS, ord("+"))
        out[scientific, at + 2] = _ZERO + np.where(three, magnitude // 100, magnitude // 10)
        out[scientific, at + 3] = _ZERO + np.where(three, magnitude // 10 % 10, magnitude % 10)
        out[scientific, at + 4] = np.where(three, _ZERO + magnitude % 10, 0)
    if not finite.all():
        special = np.flatnonzero(~finite)
        nan = (bits[special] << np.uint64(12)) != 0
        out[special, lead:] = _SPECIAL[np.where(nan, 0, 1 + negative[special])]
    return out
