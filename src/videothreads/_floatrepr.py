"""``float.__repr__`` for whole float64 arrays, computed with numpy.

``rows(values, leads, work)`` returns the text of a 2-D float64 array: each
element's ``float.__repr__``, or ``NaN``, ``Infinity`` or ``-Infinity`` as
JSON spells the non-finite values, each preceded by a lead string, with
nothing between them. ``dataio``'s JSON writer calls it once per chunk of a
float64 matrix's rows, never on more than ``CHUNK`` elements, with the JSON
ahead of each element as the leads: a comma and indent, or, for a row's
first element, the bracket closing the row before and the row's own "[".

Digits. Ryū (Adams, "Ryū: fast float-to-string conversion", PLDI 2018)
finds, among the shortest decimals that read back as the same double, the
one nearest to it, ties to even: the digits CPython's dtoa prints for
``repr``. Its steps are fixed-width integer arithmetic, so they run here
over integer arrays. Ryū's 126-bit power-of-5 multipliers are held as five
28-bit limbs: a limb product, and the sum of two, fit in a signed 64-bit
integer without splitting. The limbs and the other per-exponent constants
are gathered into contiguous rows, one ``np.take`` each: one gather of a
packed (n, 8) table was faster on its own, but left the constants strided,
which made each product that reads them three to four times slower. The
three bounds of the rounding interval, ``(4 m + d) * mul`` for d = 0, 2
and -1 or -2, share the one product ``4 m * mul`` and carry their columns
as one (3, n) array. Digit removal divides by the scalar 10 only, over all
elements while many still drop a digit, then over the few that do; where
only some elements take a new value, a bitwise blend with an all-ones mask
stands in for a masked copy, which costs several times as much when the
mask is irregular. The rules that need to know whether a bound is exact,
which only the ties and the doubles of at least 2^50 reach, run on those
elements.

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
they take. ``CHUNK`` sets its size, 30 rows of ``CHUNK`` words. Measured
on one core of a 2-core Xeon VM (2 MB L2, numpy 2.4.6), printing the
3584 x 64 ``long_video`` embeddings in a loop (kernel and assembly, median
of 20 loops, three runs), and the rise of the peak RSS over the first
``forward --emit-embeddings`` write:

    CHUNK   229k floats      peak RSS rise
    4096    51.0-53.9 ms     1.0 MB
    8192    40.6-42.8 ms     1.0 MB
    16384   38.3-39.4 ms     5.3 MB

Below 8192 the fixed cost of each ufunc call dominates; 16384 is 5-9%
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
_RARE = 1073  # biased exponents from here on (doubles of at least 2^50) have 5-adic rules
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
    """Ryū's per-exponent constants indexed by the biased exponent 0..2046 and
    built from exact Python integers. ``common`` holds, one row each, the
    eight that every element reads: the five limbs of ``mul``, the shift
    ``j - 112``, the decimal exponent and the implicit bit of ``4 m``. The
    trailing-zero mask and the power of 5 of the 5-adic tests are read for
    a few elements only.

    The arrays live in an anonymous memory map, not on the malloc heap: built
    during a run's first write, heap tables would sit above the memory the
    run frees afterwards and keep it resident (``long_video``'s peak RSS
    rose by about 4 MB that way)."""

    def __init__(self):
        common, tz_mask, small_q, pow5 = [], [], [], []
        for biased in range(2047):
            e2 = (biased if biased else 1) - 1023 - 52 - 2
            if e2 >= 0:
                q = (e2 * 78913 >> 18) - (e2 > 3)  # about log10(2^e2)
                bits = (5**q).bit_length()
                mul = (1 << (bits - 1 + 125)) // 5**q + 1
                j = -e2 + q + 125 + bits - 1
                e10 = q
                tz_mask.append(2**64 - 1)  # decided by the 5-adic test instead
                pow5.append(5**q if q <= 21 else 0)
                small_q.append(0)
            else:
                q = (-e2 * 732923 >> 20) - (-e2 > 1)  # about log10(5^-e2)
                bits = (5 ** (-e2 - q)).bit_length()
                mul = 5 ** (-e2 - q) >> (bits - 125) if bits >= 125 else 5 ** (-e2 - q) << (125 - bits)
                j = q - (bits - 125)
                e10 = q + e2
                # the bound 4m * 5^-e2 / 2^q is an integer iff 4m has q trailing zero bits
                tz_mask.append(0 if q <= 1 else (1 << q) - 1 if q < 63 else 2**64 - 1)
                pow5.append(0)
                small_q.append(int(q <= 1))
            shift = j - 4 * _RADIX  # j lies in [118, 125]
            common.append([mul >> (_RADIX * b) & _LIMB_MASK for b in range(5)]
                          + [shift, e10, 1 << 54 if biased else 0])
        if any(small_q[:_RARE]) or any(pow5[:_RARE]):
            raise AssertionError("a 5-adic rule below _RARE")
        block = np.frombuffer(mmap.mmap(-1, 2047 * 11 * 8), np.uint64).reshape(11, 2047)
        self.common = block[:8].view(np.int64)
        self.tz_mask, self.small_q, self.pow5 = block[8:]
        self.common[:] = np.array(common, dtype=np.int64).T
        self.tz_mask[:], self.small_q[:], self.pow5[:] = tz_mask, small_q, pow5


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
# rounding and the layout reuse all but the first three rows; later steps
# also reuse the rows of values that earlier ones have consumed.
_COLS = 18
_X, _SIGN, _BIASED, _LIMBS, _SHIFT, _E10, _IMPLICIT, _MV = 18, 19, 20, 21, 26, 27, 28, 29
_M0, _M1, _DELTA = _X, _IMPLICIT, 16
_ROWS = 30
_VR0, _KEPT, _VM10, _LAST, _GO, _BLEND, _REMOVED = 3, 4, 5, 6, 7, 8, 17
_DECPT, _FRAC, _POINT_AT, _LENGTH, _ZEROS, _COUNT, _POWER = 21, 22, 23, 24, 25, 26, 28
_TEXT, _SCRATCH, _BEFORE, _THROUGH, _SPILL, _TMP = 3, 6, 9, 12, 15, 16


def _bounds(u: np.ndarray, flag: np.ndarray, tables: _Tables):
    """Ryū's scaled interval ``(vr, vp, vm)`` of each finite nonzero double
    in ``u[_X]``, as the first three rows of ``u``, and the elements whose
    lower bound ``vm`` is exact."""
    i = u.view(np.int64)
    cols = i[:_COLS].reshape(6, 3, -1)
    bits, biased = u[_X], i[_BIASED]
    np.right_shift(bits, np.uint64(52), out=u[_BIASED])
    np.bitwise_and(biased, 0x7FF, out=biased)
    for row, table in enumerate(tables.common):
        np.take(table, biased, out=i[_LIMBS + row], mode="clip")
    limbs, shift = i[_LIMBS:_LIMBS + 5], i[_SHIFT]

    mv, m0, m1, delta = i[_MV], i[_M0], i[_M1], i[_DELTA:_DELTA + 2]
    np.bitwise_and(bits, _FRACTION, out=u[_MV])
    np.equal(mv, 0, out=flag)  # a power of 2: the gap below is half the gap above
    halved = np.flatnonzero(flag) if flag.any() else _NONE
    halved = halved[biased[halved] > 1]
    np.left_shift(mv, 2, out=mv)
    np.add(mv, i[_IMPLICIT], out=mv)  # 4 m
    np.bitwise_and(mv, _LIMB_MASK, out=m0)
    np.right_shift(mv, _RADIX, out=m1)

    # 4 m * mul in six 28-bit columns, two limbs of 4 m times five of mul;
    # rows 1 and 2 add 2 mul and -2 mul (-mul above a power of 2) to row 0
    np.multiply(limbs, m0, out=cols[:5, 0])
    cols[5, 0] = 0
    np.multiply(limbs, m1, out=cols[:5, 1])
    np.add(cols[1:, 0], cols[:5, 1], out=cols[1:, 0])
    delta[0], delta[1] = 2, -2
    delta[1, halved] = -1
    np.multiply(limbs[:, None], delta, out=cols[:5, 1:])
    np.add(cols[:5, 1:], cols[:5, :1], out=cols[:5, 1:])
    # (4 m + d) * mul >> j, carrying the columns
    for c in range(1, 5):
        np.right_shift(cols[c - 1], _RADIX, out=cols[c - 1])
        np.add(cols[c], cols[c - 1], out=cols[c])
    top, lsh = cols[0], delta[0]
    np.right_shift(cols[4], _RADIX, out=top)
    np.add(top, cols[5, 0], out=top)
    np.subtract(_RADIX, shift, out=lsh)
    np.left_shift(top, lsh, out=top)
    np.bitwise_and(cols[4], _LIMB_MASK, out=cols[4])
    np.right_shift(cols[4], shift, out=cols[4])
    np.add(top, cols[4], out=top)
    vr, vp, vm = top.view(np.uint64)

    exact = _NONE
    np.greater_equal(biased, _RARE, out=flag)
    if flag.any():  # doubles of at least 2^50, whose bounds may be multiples of 5^q
        at = np.flatnonzero(flag)
        b, mv_at = biased[at], u[_MV, at]
        even = (mv_at & np.uint64(4)) == 0
        halved_at = (mv_at & (_FRACTION << np.uint64(2))) == 0
        small = tables.small_q[b] != 0  # e2 < 0 and q <= 1: vm is exact, vp is if m is even
        on_lower = small & even & ~halved_at
        vp[at] -= small & ~even
        five = np.flatnonzero(tables.pow5[b])
        if five.size:
            p5, mv5, even5 = tables.pow5[b[five]], mv_at[five], even[five]
            on_v = mv5 % np.uint64(5) == 0
            on_lower[five] = ~on_v & even5 & ((mv5 - np.uint64(2) + halved_at[five]) % p5 == 0)
            vp[at[five]] -= ~on_v & ~even5 & ((mv5 + np.uint64(2)) % p5 == 0)
        exact = at[on_lower]
    return vr, vp, vm, exact


def _exact(at: np.ndarray, u: np.ndarray, tables: _Tables) -> np.ndarray:
    """The elements of ``at`` whose ``vr`` was its scaled bound exactly and
    lost only zeros before its last digit went."""
    biased, mv = u[_BIASED, at].view(np.int64), u[_MV, at]
    exact = (mv & tables.tz_mask[biased]) == 0
    five = np.flatnonzero(tables.pow5[biased])
    if five.size:
        mv5 = mv[five]
        exact[five] = (mv5 % np.uint64(5) == 0) & (mv5 % tables.pow5[biased[five]] == 0)
    at = at[exact]
    return at[u[_VR0, at] % _POW10[u[_REMOVED, at] - np.uint64(1)] == 0]


def _blend(a: np.ndarray, b: np.ndarray, mask: np.ndarray, tmp: np.ndarray) -> None:
    """``a`` takes ``b`` where ``mask`` is all ones, in place; a masked
    ``copyto`` with an irregular mask costs several times as much."""
    np.bitwise_xor(a, b, out=tmp)
    np.bitwise_and(tmp, mask, out=tmp)
    np.bitwise_xor(a, tmp, out=a)


def _shortest(u: np.ndarray, flag: np.ndarray, tables: _Tables, vr, vp, vm, exact) -> None:
    """Ryū's digit removal: drop the last digit of ``vr``, ``vp`` and ``vm``
    while ``vp`` and ``vm`` still differ above it, then round ``vr``, in
    place. Leaves the number of digits dropped in ``u[_REMOVED]``."""
    n = u.shape[1]
    vr0, kept, vm10, removed, last, go, tmp = (u[k] for k in (_VR0, _KEPT, _VM10, _REMOVED, _LAST,
                                                             _GO, _BLEND))
    np.copyto(vr0, vr)
    np.copyto(kept, vr)  # vr before its last digit went
    removed.fill(0)
    exact_vm = vm[exact]
    np.floor_divide(vp, _TEN, out=vp)
    np.floor_divide(vm, _TEN, out=vm10)
    np.subtract(vm10, vp, out=go)
    np.right_shift(go.view(np.int64), 63, out=go.view(np.int64))  # all ones where vp > vm
    # over all elements while many drop a digit (most drop one to three);
    # vr runs ahead, divided whether or not the element drops a digit
    while np.count_nonzero(go) * 8 > n:
        np.subtract(removed, go, out=removed)
        _blend(kept, vr, go, tmp)
        _blend(vm, vm10, go, tmp)
        np.floor_divide(vr, _TEN, out=vr)
        np.floor_divide(vp, _TEN, out=vp)
        np.floor_divide(vm10, _TEN, out=vm10)
        np.subtract(vm10, vp, out=go)
        np.right_shift(go.view(np.int64), 63, out=go.view(np.int64))
    at = np.flatnonzero(go)
    ahead, upper, lower = vr[at], vp[at], vm10[at]
    while at.size:  # then over the few that still do
        removed[at] += np.uint64(1)
        kept[at], vm[at] = ahead, lower
        ahead, upper, lower = ahead // _TEN, upper // _TEN, lower // _TEN
        more = upper > lower
        at, ahead, upper, lower = at[more], ahead[more], upper[more], lower[more]
    np.floor_divide(kept, _TEN, out=vr)
    np.multiply(vr, _TEN, out=last)
    np.subtract(kept, last, out=last)
    np.equal(removed, 0, out=flag)
    if flag.any():
        at = np.flatnonzero(flag)
        vr[at], last[at] = vr0[at], 0

    # the lower bound is exact and so far lost only zeros: drop its zeros too
    exact = at = exact[exact_vm % _POW10[removed[exact]] == 0]
    while at.size:
        lower = vm[at] // _TEN
        zero = vm[at] == lower * _TEN
        at, lower = at[zero], lower[zero]
        ahead = vr[at] // _TEN
        last[at] = vr[at] - ahead * _TEN
        vr[at], vm[at] = ahead, lower
        removed[at] += np.uint64(1)

    # round half to even on an exact tie; take vr + 1 when vr fell out of bounds
    np.equal(last, 5, out=flag)
    if flag.any():
        tie = _exact(np.flatnonzero(flag), u, tables)
        last[tie[(vr[tie] & np.uint64(1)) == 0]] = 4
    up = go.view(bool)[:n]
    np.equal(vr, vm, out=up)
    if exact.size:  # vm itself is a candidate only if m is even
        up[exact] &= (u[_MV, exact] & np.uint64(4)) != 0
    np.greater_equal(last, 5, out=flag)
    np.bitwise_or(up, flag, out=up)
    np.add(vr, up, out=vr)


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
    vr, vp, vm, exact = _bounds(u, flag, tables)
    _shortest(u, flag, tables, vr, vp, vm, exact)
    digits = vr
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
