"""``float.__repr__`` for whole float64 arrays, computed with numpy.

``rows(values, leads, work)`` returns the text of a 2-D float64 array: each
element's ``float.__repr__``, or ``NaN``, ``Infinity`` or ``-Infinity`` as
JSON spells the non-finite values, each preceded by a lead string, with
nothing between them. ``dataio``'s JSON writer calls it once per chunk of a
float64 matrix's rows, never on more than ``CHUNK`` elements, with the JSON
ahead of each element as the leads: a comma and indent, or, for a row's
first element, the bracket closing the row before and the row's own "[".

Digits. Schubfach (Giulietti, "The Schubfach way to render doubles", 2020;
Java's ``Double.toString`` since JDK 19) finds, among the shortest
decimals that read back as the same double, the one nearest to it, ties to
even: the digits CPython's dtoa prints for ``repr``. For v = c 2^q it
scales the rounding interval by 10^-k, k = floor(log10 2^q), so that it is
1 to 10 units wide: it holds at most one multiple of 10, and s = floor(v
10^-k) or s + 1. So the digits come in a fixed number of integer steps,
with no digit-removal loop and no rule for bounds that are exact, and the
steps run here over integer arrays; only the few elements whose digits end
in zeros take a loop that strips them. Each bound is the product of 4 c +
d with a 131-bit constant G, rounded to odd: its quotient by 2^127, whose
last bit is set when any of the product's bits 64 to 126 is. G is held as
five 28-bit limbs: a limb product, and the sum of two, fit in a signed
64-bit integer without splitting. The limbs and the decimal exponent are
gathered into contiguous rows, one ``np.take`` each: one gather of a
packed table was faster on its own, but left the constants strided,
which made each product that reads them three to four times slower. The
three bounds, d = 0, 2 and -2, share the one product ``4 c * G`` and carry
their columns as one (3, n) array. Checked against ``repr``, three rules
matter: the multiple of 10 is looked for from s = 10 on (Java, which
prints at least two digits, looks from s = 100); the round-to-odd bit
reads the product's bits 64 to 126 only, not every bit it discards; and a
power of 2 above the smallest exponent, whose gap below is half the gap
above, takes k = floor(log10 (3/4) 2^q) and d = -1 for its lower bound.
Where only some elements take a new value, a bitwise blend with an
all-ones mask stands in for a masked copy, which costs several times as
much when the mask is irregular.

Layout. CPython prints the digits with the decimal point after ``decpt``
of them positionally when -4 < decpt <= 16 (``0.0001``, ``1e15`` as
``1000000000000000.0``) and as ``d.ddde±XX`` otherwise (``1e-05``,
``1e+16``). Each element's text is built as a little-endian 24-byte string
in three ``uint64`` words: the 17 digit characters padded with "0", the
point inserted by masks and a one-byte shift, the tail cut off, then the
sign and any "0.000" prefix shifted in front.

Assembly. A running sum of the lead and text lengths gives each string's
byte offset. Each is shifted by its offset modulo 8 and added, word by
word, into a zeroed ``uint64`` buffer with ``np.add.at``: the strings
cover disjoint bytes, so the sums are their bitwise union, and the text is
a prefix of the buffer with no NUL byte to delete.

Workspace. A ``Workspace`` holds every array the kernel fills, through
``out=`` arguments and in-place ufuncs, and the text buffer. ``dataio``
makes one per matrix it writes and drops it when the write returns, so a
chunk allocates only the index arrays of its rare cases and the subsets
they take. ``CHUNK`` sets its size, 29 rows of ``CHUNK`` words. Measured
on one core of a 2-core Xeon VM (2 MB L2, numpy 2.4.6), printing the
3584 x 64 ``long_video`` embeddings in a loop (kernel and assembly, median
of 20 loops, three runs), and the rise of the peak RSS over the first
``forward --emit-embeddings`` write:

    CHUNK   229k floats      peak RSS rise
    4096    50.4-53.2 ms     0.75 MB
    8192    42.8-43.7 ms     0.75-0.9 MB
    16384   40.8-42.4 ms     4.5 MB

Below 8192 the fixed cost of each ufunc call dominates; 16384 is 3-7%
faster than 8192 but raises the peak RSS five times as much.
"""

from __future__ import annotations

import functools
import mmap

import numpy as np

CHUNK = 8192  # elements per call

_DIGITS = 17  # a shortest repr never needs more significant digits
_WORDS = 3  # the longest repr, "-1.2345678901234567e-308", has 24 characters
_RADIX = 28  # bits per limb: a limb product and a sum of two fit in 63 bits
_LIMB_MASK = (1 << _RADIX) - 1
_FRACTION = np.uint64((1 << 52) - 1)
_ONE_BITS = np.float64(1.0).view(np.uint64)
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)  # up to 2^64
_POINTS = np.uint64(0x2E2E2E2E2E2E2E2E)
_TEN = np.uint64(10)
_NONE = np.empty(0, np.intp)
# _PREFIX[6 * negative + z]: "-" if negative, then for z > 0 "0." and z - 2 zeros
_PREFIX = np.array([int.from_bytes(sign + (b"0." + b"0" * (z - 2) if z else b""), "little")
                    for sign in (b"", b"-") for z in range(6)], dtype=np.uint64)
# _LOW[k, w]: word w of the mask that keeps the first k bytes of 24
_LOW = np.array([[(1 << 8 * min(max(k - 8 * w, 0), 8)) - 1 for w in range(_WORDS)]
                 for k in range(8 * _WORDS + 1)], dtype=np.uint64)
_SPECIAL = [(int.from_bytes(text, "little"), len(text))
            for text in (b"NaN", b"Infinity", b"-Infinity")]


class _Tables:
    """Schubfach's per-exponent constants, built from exact Python integers.
    Column ``b`` serves the biased exponent b (0..2046), column ``2047 + b``
    a power of 2 of that exponent, whose gap below is half the gap above.
    ``common`` holds, one row each, the five limbs of G, the implicit bit of
    4 c and the decimal exponent k.

    For v = c 2^q, k is floor(log10 2^q), or floor(log10 (3/4) 2^q) in the
    power-of-2 columns; with r = floor(log2 10^-k), g = floor(10^-k 2^(125 - r))
    + 1 lies in [2^125, 2^126), h = q + r + 2 in [2, 5], and G = g 2^h. The
    logarithms' integer parts are Giulietti's fixed-point products.

    The arrays live in an anonymous memory map, not on the malloc heap: built
    during a run's first write, heap tables would sit above the memory the
    run frees afterwards and keep it resident (``long_video``'s peak RSS
    rose by about 4 MB that way)."""

    def __init__(self):
        column = np.arange(4094)
        biased = column % 2047
        q = np.maximum(biased, 1) - 1075
        k = q * 661971961083 - 274743187321 * (column >= 2047) >> 41  # 2^41 log10 2, 2^41 log10 4/3
        r = -k * 913124641741 >> 38
        g = {(e, f): (10**max(-e, 0) << max(125 - f, 0)) // (10**max(e, 0) << max(f - 125, 0)) + 1
             for e, f in set(zip(k.tolist(), r.tolist()))}
        big = [g[e, f] << h for e, f, h in zip(k.tolist(), r.tolist(), (q + r + 2).tolist())]
        self.common = np.frombuffer(mmap.mmap(-1, 7 * 4094 * 8), np.int64).reshape(7, 4094)
        for b in range(5):
            self.common[b] = [value >> _RADIX * b & _LIMB_MASK for value in big]
        self.common[5], self.common[6] = np.where(biased, 1 << 54, 0), k


@functools.cache
def _tables() -> _Tables:
    return _Tables()


@functools.lru_cache(maxsize=64)
def _lead_words(lead: bytes) -> np.ndarray:
    """``[w, s]``: word ``w`` of ``lead`` moved ``s`` bytes towards its end."""
    value, count = int.from_bytes(lead, "little"), (len(lead) + 14) // 8
    return np.array([[value << 8 * s >> 64 * w & (2**64 - 1) for s in range(8)]
                     for w in range(count)], dtype=np.uint64)


class Workspace:
    """Every array ``rows`` fills for a chunk of up to ``size`` elements, as
    rows of one ``uint64`` block, and the text buffer, grown to the longest
    text asked for."""

    def __init__(self, size: int):
        size = max(size, 1)
        self.rows = np.empty((_ROWS, size), np.uint64)
        self.flag = np.empty(size, bool)
        self.offsets = np.empty(size + 1, np.int64)
        self.text = np.empty(0, np.uint64)


# The rows of Workspace.rows: first the bounds' six columns of three (the
# last column has one, and d sits in the two rows after it), of which the
# digit choice and the layout reuse all but the first three rows; later steps
# also reuse the rows of values that earlier ones have consumed.
_COLS = 18
_X, _SIGN, _BIASED, _LIMBS, _IMPLICIT, _E10, _MV = 18, 19, 20, 21, 26, 27, 28
_M0, _M1, _DELTA = _X, _IMPLICIT, 16
_ROWS = 29
_S, _FOUR, _BIT, _INSIDE, _TENS, _REMOVED = 3, 4, 5, 6, 7, 17
_DECPT, _FRAC, _POINT_AT, _LENGTH, _ZEROS, _COUNT, _POWER = 21, 22, 23, 24, 25, 26, 28
_TEXT, _SCRATCH, _BEFORE, _THROUGH, _SPILL, _TMP = 3, 6, 9, 12, 15, 16


def _bounds(u: np.ndarray, flag: np.ndarray, tables: _Tables) -> None:
    """Schubfach's rounding interval of each finite nonzero double c 2^q in
    ``u[_X]``, scaled by 4 10^-k, into the first three rows of ``u``:
    ``vb``, ``vbr`` and ``vbl``, G (4 c + d) / 2^127 rounded to odd for
    d = 0, 2 and -2 (-1 for a power of 2)."""
    i = u.view(np.int64)
    cols = i[:_COLS].reshape(6, 3, -1)
    bits, biased = u[_X], i[_BIASED]
    mv, m0, m1, delta = i[_MV], i[_M0], i[_M1], i[_DELTA:_DELTA + 2]
    np.right_shift(bits, np.uint64(52), out=u[_BIASED])
    np.bitwise_and(biased, 0x7FF, out=biased)
    np.bitwise_and(bits, _FRACTION, out=u[_MV])
    np.equal(mv, 0, out=flag)  # a power of 2, unless of the smallest exponent
    halved = np.flatnonzero(flag) if flag.any() else _NONE
    halved = halved[biased[halved] > 1]
    biased[halved] += 2047
    for row, table in enumerate(tables.common):
        np.take(table, biased, out=i[_LIMBS + row], mode="clip")
    limbs = i[_LIMBS:_LIMBS + 5]
    np.left_shift(mv, 2, out=mv)
    np.add(mv, i[_IMPLICIT], out=mv)  # 4 c
    np.bitwise_and(mv, _LIMB_MASK, out=m0)
    np.right_shift(mv, _RADIX, out=m1)

    # G 4 c in six 28-bit columns, two limbs of 4 c times five of G; rows 1
    # and 2 add 2 G and -2 G (-G for a power of 2) to row 0
    np.multiply(limbs, m0, out=cols[:5, 0])
    cols[5, 0] = 0
    np.multiply(limbs, m1, out=cols[:5, 1])
    np.add(cols[1:, 0], cols[:5, 1], out=cols[1:, 0])
    delta[0], delta[1] = 2, -2
    delta[1, halved] = -1
    np.multiply(limbs[:, None], delta, out=cols[:5, 1:])
    np.add(cols[:5, 1:], cols[:5, :1], out=cols[:5, 1:])
    # carry the columns; the sticky bit is set when any of the product's
    # bits 64 to 126 is: bits 8 up of column 2, column 3, bits 0 to 14 of
    # column 4
    np.right_shift(cols[0], _RADIX, out=cols[0])
    np.add(cols[1], cols[0], out=cols[1])
    sticky, low = cols[0], cols[1]  # each free once carried out of
    sticky.fill(0)
    for c, keep in ((2, _LIMB_MASK ^ 0xFF), (3, _LIMB_MASK), (4, 0x7FFF)):
        np.right_shift(cols[c - 1], _RADIX, out=cols[c - 1])
        np.add(cols[c], cols[c - 1], out=cols[c])
        np.bitwise_and(cols[c], keep, out=low)
        np.bitwise_or(sticky, low, out=sticky)
    np.minimum(sticky, 1, out=sticky)
    # the product's bits from 127 = 4 * 28 + 15 on
    np.right_shift(cols[4], 15, out=cols[4])
    np.left_shift(cols[5, 0], _RADIX - 15, out=cols[5, 0])
    np.add(cols[4], cols[5, 0], out=cols[4])
    np.bitwise_or(sticky, cols[4], out=sticky)


def _blend(a: np.ndarray, b: np.ndarray, mask: np.ndarray, tmp: np.ndarray) -> None:
    """``a`` takes ``b`` where ``mask`` is all ones, in place; a masked
    ``copyto`` with an irregular mask costs several times as much."""
    np.bitwise_xor(a, b, out=tmp)
    np.bitwise_and(tmp, mask, out=tmp)
    np.bitwise_xor(a, tmp, out=a)


def _digits(u: np.ndarray, flag: np.ndarray) -> None:
    """Schubfach's digits from ``_bounds``'s interval, into ``u[0]``: the one
    multiple of 10 inside it when s = floor(vb / 4) is at least 10, else s
    or s + 1, whichever alone is inside, else the nearer of the two, ties
    to even, less any trailing zeros. Leaves in ``u[_REMOVED]`` how many
    digits were dropped: the decimal is ``u[0]`` times 10^(k + removed)."""
    vb, vbr, vbl = u[:3]
    s, four, bit, inside, tens, removed = (u[k] for k in (_S, _FOUR, _BIT, _INSIDE, _TENS,
                                                           _REMOVED))
    np.right_shift(u[_MV], np.uint64(2), out=bit)
    np.bitwise_and(bit, np.uint64(1), out=bit)  # c odd: the interval excludes its bounds
    np.add(vbl, bit, out=vbl)
    np.subtract(vbr, bit, out=vbr)
    np.right_shift(vb, np.uint64(2), out=s)
    # the multiple of 10 inside, divided by 10: 10 floor(s / 10) or the next
    np.floor_divide(s, _TEN, out=tens)
    np.multiply(tens, np.uint64(40), out=four)
    np.less_equal(vbl, four, out=inside)
    np.add(four, np.uint64(40), out=four)
    np.less_equal(four, vbr, out=bit)
    np.add(tens, bit, out=tens)
    np.bitwise_or(inside, bit, out=inside)
    np.greater_equal(s, _TEN, out=bit)
    np.bitwise_and(inside, bit, out=removed)
    # else s + 1 where it alone is inside, or both are and vb / 4 is above
    # s + 1/2, or at it with s odd: bit 0 of 0xC8 >> (vb & 7), as bit 2 of vb
    # is the last bit of s
    np.bitwise_and(vb, np.uint64(7), out=bit)
    np.right_shift(np.uint64(0xC8), bit, out=bit)
    np.bitwise_and(vb, ~np.uint64(3), out=four)  # 4 s
    np.less_equal(vbl, four, out=inside)
    np.invert(inside, out=inside)
    np.bitwise_or(inside, bit, out=inside)
    np.add(four, np.uint64(4), out=four)
    np.less_equal(four, vbr, out=bit)
    np.bitwise_and(bit, inside, out=bit)
    np.add(s, bit, out=vb)
    np.negative(removed, out=inside)
    _blend(vb, tens, inside, four)
    # strip trailing zeros: a multiple of 100 inside, or 10 = s + 1
    np.floor_divide(vb, _TEN, out=s)
    np.multiply(s, _TEN, out=four)
    np.equal(four, vb, out=flag)
    at = np.flatnonzero(flag) if flag.any() else _NONE
    while at.size:
        vb[at] //= _TEN
        removed[at] += np.uint64(1)
        at = at[vb[at] % _TEN == 0]


def _count(digits: np.ndarray, u: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """How many decimal digits each nonzero ``digits`` has: its bit length
    read off its float64 exponent, scaled by log10(2) (1233 / 4096), and
    one more if it reaches that power of 10."""
    count, power = u.view(np.int64)[_COUNT], u[_POWER]
    np.copyto(count.view(np.float64), digits, casting="unsafe")
    np.right_shift(count, 52, out=count)
    np.subtract(count, 1022, out=count)  # the bit length, or one more after rounding up
    np.multiply(count, 1233, out=count)
    np.right_shift(count, 12, out=count)
    np.take(_POW10, count, out=power, mode="clip")
    np.greater_equal(digits, power, out=flag)
    np.add(count, flag, out=count)
    return count


def _ascii8(v: np.ndarray, t: np.ndarray) -> None:
    """The 8 decimal digits of each ``v < 10^8`` as ASCII bytes, most
    significant first in little-endian memory order, in place, by halving
    the digit groups (4+4, 2+2+2+2, 1+...+1); ``t`` is scratch. Each step
    moves the remainders up a lane as ``(v << s) - q * ((d << s) - 1)``."""
    np.floor_divide(v, np.uint64(10000), out=t)
    np.left_shift(v, np.uint64(32), out=v)
    np.multiply(t, np.uint64((10000 << 32) - 1), out=t)
    np.subtract(v, t, out=v)
    for mul, shift, mask, d, s in ((10486, 20, 0x0000007F0000007F, 100, 16),  # lanes // 100
                                   (103, 10, 0x000F000F000F000F, 10, 8)):  # lanes // 10
        np.multiply(v, np.uint64(mul), out=t)
        np.right_shift(t, np.uint64(shift), out=t)
        np.bitwise_and(t, np.uint64(mask), out=t)
        np.left_shift(v, np.uint64(s), out=v)
        np.multiply(t, np.uint64((d << s) - 1), out=t)
        np.subtract(v, t, out=v)
    np.bitwise_or(v, np.uint64(0x3030303030303030), out=v)


def _shift(words: np.ndarray, count: np.ndarray, u: np.ndarray,
           spill: np.ndarray | None = None) -> None:
    """Little-endian byte strings held as the rows of ``words``, moved
    ``count`` (< 8) bytes towards their end in place: NUL bytes move in at
    the front, and the bytes moved past the last row go to ``spill``, or
    are lost."""
    bits, back, carry = u[_TMP], u[_X], u[_SCRATCH:_SCRATCH + 2]
    np.left_shift(count, np.uint64(3), out=bits)
    np.subtract(np.uint64(64), bits, out=back)  # a shift by 64 yields 0
    if spill is not None:
        np.right_shift(words[-1], back, out=spill)
    np.right_shift(words[:-1], back, out=carry[:len(words) - 1])
    np.left_shift(words, bits, out=words)
    np.bitwise_or(words[1:], carry[:len(words) - 1], out=words[1:])


def rows(values: np.ndarray, leads: tuple[bytes, bytes, bytes], work: Workspace):
    """The text of the 2-D float64 array ``values`` (r x c, any strides, at
    most ``work``'s size): its elements in C order, each preceded by a lead,
    ``leads[0]`` within a row, ``leads[1]`` at the start of rows 1, 2, ...
    and ``leads[2]`` at the start of row 0; see the module docstring.
    Returns the text as a ``uint8`` view of ``work``'s buffer, good until
    its next call, and the offsets of the r rows' leads in it."""
    r, c = values.shape
    n = r * c
    tables = _tables()
    u, flag = work.rows[:, :n], work.flag[:n]
    i = u.view(np.int64)
    x = u[_X].view(np.float64)
    np.copyto(x.reshape(r, c), values)
    np.right_shift(u[_X], np.uint64(63), out=u[_SIGN])
    np.isfinite(x, out=flag)
    special = nonfinite = _NONE
    if not (flag.all() and x.all()):  # zeros and non-finite values stand in as 1.0
        nonfinite = np.flatnonzero(~flag)
        special = np.flatnonzero(~flag | (x == 0.0))
        kinds = np.where(np.isnan(x[nonfinite]), 0, 1 + i[_SIGN, nonfinite])
        u[_X, special] = _ONE_BITS
    _bounds(u, flag, tables)
    _digits(u, flag)
    digits = u[0]
    digits[special] = 0  # then printed as 0.0

    count = _count(digits, u, flag)
    count[special] = 1
    decpt, frac, point, length, zeros = (i[k] for k in (_DECPT, _FRAC, _POINT_AT, _LENGTH, _ZEROS))
    np.add(count, i[_E10], out=decpt)
    np.add(decpt, i[_REMOVED], out=decpt)
    decpt[special] = 1
    np.add(decpt, 3, out=point)
    np.greater(u[_POINT_AT], np.uint64(19), out=flag)  # not -4 < decpt <= 16
    sci = np.flatnonzero(flag) if flag.any() else _NONE
    np.subtract(decpt, 1, out=frac)
    np.right_shift(frac, 63, out=frac)  # all ones where decpt <= 0: 0.ddd, 0.0ddd, ...
    frac[sci] = 0
    # the point after the integer digits, or after the first digit of d.ddde±XX
    np.copyto(point, decpt)
    np.copyto(zeros, _DIGITS)
    _blend(point, zeros, frac, length)
    point[sci] = 1
    np.add(decpt, 1, out=length)
    np.maximum(length, count, out=length)
    np.add(length, 1, out=length)
    _blend(length, count, frac, zeros)
    length[sci] = count[sci] + (count[sci] > 1)
    np.subtract(2, decpt, out=zeros)
    np.bitwise_and(zeros, frac, out=zeros)

    # the 17 digit characters, left-aligned and padded with "0"
    words, scratch, tmp = u[_TEXT:_TEXT + 3], u[_SCRATCH:_SCRATCH + 3], u[_TMP]
    left = u[_POWER]
    np.subtract(_DIGITS, count, out=i[_TMP])
    np.take(_POW10, i[_TMP], out=left, mode="clip")
    np.multiply(left, digits, out=left)
    np.floor_divide(left, np.uint64(10**9), out=words[0])
    np.multiply(words[0], np.uint64(10**9), out=tmp)
    np.subtract(left, tmp, out=left)
    np.floor_divide(left, _TEN, out=words[1])
    np.multiply(words[1], _TEN, out=tmp)
    np.subtract(left, tmp, out=words[2])
    np.add(words[2], np.uint64(ord("0")), out=words[2])
    _ascii8(words[:2], scratch[:2])
    # insert the point: bytes before it stay, bytes after it move up one
    before, through = u[_BEFORE:_BEFORE + 3], u[_THROUGH:_THROUGH + 3]
    np.right_shift(words[:2], np.uint64(56), out=before[:2])
    np.left_shift(words, np.uint64(8), out=scratch)
    np.bitwise_or(scratch[1:], before[:2], out=scratch[1:])
    for k in range(_WORDS):
        np.take(_LOW[:, k], point, out=before[k], mode="clip")
        np.take(_LOW[1:, k], point, out=through[k], mode="clip")
    np.bitwise_and(words, before, out=words)
    np.bitwise_xor(before, through, out=before)  # the point's byte
    np.invert(through, out=through)
    np.bitwise_and(scratch, through, out=scratch)
    np.bitwise_or(words, scratch, out=words)
    np.bitwise_and(before, _POINTS, out=before)
    np.bitwise_or(words, before, out=words)
    # cut the tail
    for k in range(_WORDS):
        np.take(_LOW[:, k], length, out=before[k], mode="clip")
    np.bitwise_and(words, before, out=words)
    if sci.size:  # "e", the sign and two or three digits
        exponent = decpt[sci] - 1
        magnitude = np.abs(exponent)
        three = magnitude >= 100
        text = (ord("e") | np.where(exponent < 0, ord("-"), ord("+")) << 8
                | ord("0") + np.where(three, magnitude // 100, magnitude // 10) << 16
                | ord("0") + np.where(three, magnitude // 10 % 10, magnitude % 10) << 24
                | np.where(three, ord("0") + magnitude % 10, 0) << 32).astype(np.uint64)
        at = length[sci]
        word, bits = at >> 3, (at & 7).astype(np.uint64) << np.uint64(3)
        words[word, sci] |= text << bits
        spill = word < _WORDS - 1
        words[word[spill] + 1, sci[spill]] |= text[spill] >> (np.uint64(64) - bits[spill])
        length[sci] += 4 + three
    # in front: "-", then "0." and as many zeros as decpt is below 0
    sign = i[_SIGN]
    np.multiply(sign, 6, out=point)
    np.add(point, zeros, out=point)
    np.add(zeros, sign, out=zeros)
    np.add(length, zeros, out=length)
    _shift(words, u[_ZEROS], u)
    np.take(_PREFIX, point, out=tmp, mode="clip")
    np.bitwise_or(words[0], tmp, out=words[0])
    if nonfinite.size:
        for kind, (text, size) in enumerate(_SPECIAL):
            at = nonfinite[kinds == kind]
            words[:, at] = np.array([text >> 64 * k & (2**64 - 1) for k in range(_WORDS)],
                                    np.uint64)[:, None]
            length[at] = size
    return _assemble(u, work, leads, c)


def _assemble(u: np.ndarray, work: Workspace, leads, c: int):
    """Each element's lead and text laid end to end in ``work.text``; see
    ``rows``."""
    n = u.shape[1]
    i = u.view(np.int64)
    words, length, offsets = u[_TEXT:_TEXT + 3], i[_LENGTH], work.offsets[:n + 1]
    sizes = i[_POINT_AT]
    np.add(length, len(leads[0]), out=sizes)
    sizes[::c] += len(leads[1]) - len(leads[0])
    sizes[0] += len(leads[2]) - len(leads[1])
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[n])
    need = total // 8 + 5
    if work.text.size < need:
        work.text = np.zeros(need, np.uint64)
    else:
        work.text[:need] = 0
    text = work.text

    # the texts, from each lead's end
    at, shift, spill = i[_POINT_AT], u[_DECPT], u[_SPILL]
    np.subtract(offsets[1:], length, out=at)
    np.bitwise_and(at, 7, out=i[_DECPT])
    np.right_shift(at, 3, out=at)
    _shift(words, shift, u, spill)
    for word in (*words, spill):
        np.add.at(text, at, word)
        np.add(at, 1, out=at)
    # the leads, from each element's offset
    np.bitwise_and(offsets[:n], 7, out=i[_DECPT])
    np.right_shift(offsets[:n], 3, out=at)
    tmp = u[_TMP]
    for table in _lead_words(leads[0]):
        np.take(table, i[_DECPT], out=tmp, mode="clip")
        tmp[::c] = 0
        np.add.at(text, at, tmp)
        np.add(at, 1, out=at)
    for lead, starts in ((leads[1], slice(c, n, c)), (leads[2], slice(0, 1))):
        table, lead_at = _lead_words(lead), offsets[starts]
        word_at = (lead_at >> 3) + np.arange(len(table))[:, None]
        np.add.at(text, word_at.ravel(), table[:, lead_at & 7].ravel())
    return text.view(np.uint8)[:total], offsets[0:n:c]
