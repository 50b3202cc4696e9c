"""Vectorized "%.17g": chunks of floats as the text of CSV cells.

``format_cells`` writes each cell of a chunk as ``"%.17g" % value`` followed
by a separator, byte for byte, in a few dozen NumPy passes instead of one
Python call per cell.  Every cell gets a 32-byte slot of text bytes;
``bytes.translate`` then deletes the zero bytes that a keep-mask left in it.
Its scratch arrays come from ``workspace``, which a writer allocates once and
hands to every chunk, so that no chunk allocates arrays of its own size; every
``np.take`` gets ``mode="clip"`` (its indices are in range) and a C-contiguous
``out``, which it fills without a buffer.  ``serialize`` lays out the rows and
the chunks.
"""

from __future__ import annotations

import functools

import numpy as np

# One cell's 32 byte slots, four 8-byte words read little-endian: the sign,
# the "0.000" prefix, the lead digit and its ".", the other 16 digits, "e-0"
# and one exponent digit, the separator, and three unused bytes.  A cell of
# decimal exponent 1 to 16 shifts the digits after its point up one byte, over
# the "e", and puts the point in.  A keep-mask chosen by (sign, decimal
# exponent, trailing zeros) zeroes the bytes that are not in the "%.17g" text,
# and bytes.translate deletes them.
_SLOT_WIDTH = 32
_SLOT_LEAD = 6
_SLOT_BODY = 8
_SLOT_EXP = 27
_SLOT_SEP = 28
# mask classes: decimal exponents -6..16 of the rounded value, and last the
# cells left to "%.17g" itself, which keep only their separator
_MIN_EXP = -6
_FALLBACK = 16 - _MIN_EXP + 1


@functools.cache
def _csv_tables():
    """Byte templates, keep-masks and lookup tables of the "%.17g" kernel.

    Built on first use, so that importing the package stays cheap.
    """
    masks = np.zeros((2, _FALLBACK + 1, 17, _SLOT_WIDTH), dtype=bool)
    masks[..., _SLOT_SEP] = True
    masks[1, :_FALLBACK, :, 0] = True
    masks[:, :_FALLBACK, :, _SLOT_LEAD] = True
    for cls in range(_FALLBACK):
        exp = cls + _MIN_EXP
        for zeros in range(17):
            m = masks[:, cls, zeros]
            last = 16 - zeros  # digits after the lead one, up to the last nonzero
            if exp > 0:  # ddd.ddd, the point shifted in after digit exp
                m[:, _SLOT_BODY : _SLOT_BODY + exp] = True
                if last > exp:
                    m[:, _SLOT_BODY + exp : _SLOT_BODY + last + 1] = True
                continue
            m[:, _SLOT_BODY : _SLOT_BODY + last] = True
            if -4 <= exp < 0:  # 0.000ddd: "0." and -exp - 1 zeros
                m[:, 1 : 2 - exp] = True
                continue
            if exp < -4:  # d.ddde-0X
                m[:, _SLOT_EXP - 3 : _SLOT_EXP + 1] = True
            if last:
                m[:, _SLOT_LEAD + 1] = True
    masks = masks.reshape(-1, _SLOT_WIDTH)
    # "dddd" of 0..9999, as the low four bytes of a word
    quad_digits = np.frombuffer(b"".join(b"%04d" % q for q in range(10**4)), dtype=np.uint32)
    quads = np.arange(10**4)
    quad_zeros = np.zeros(10**4, dtype=np.intp)  # trailing zeros of "dddd"
    for j in (1, 2, 3, 4):
        quad_zeros += quads % 10**j == 0
    # by p = 16 - exp, 0..15: the body bytes before the point, those after it
    # (which take the byte below them) and the point
    body = np.arange(16)
    point = np.arange(16, 0, -1)[:, None]
    low = np.where(body < point, 255, 0).astype(np.uint8)
    high = np.where(body > point, 255, 0).astype(np.uint8)
    dot = np.where(body == point, ord("."), 0).astype(np.uint8)
    pow10 = 10.0 ** np.arange(23)  # exact doubles
    pow10_hi = _split(pow10, np.empty((2, pow10.size)))
    ends = np.frombuffer(b"-0.0000." + b"e-00,\0\0\0" + b"\0-00,\0\0\0", dtype=np.uint64)
    tables = {
        # the first and the last word of the slots, and the last one whose
        # first byte takes the 16th digit of a shifted cell
        "ends": ends.copy(),
        "masks": (masks * np.uint8(255)).view(np.uint64),
        "lengths": masks.sum(axis=1),
        "quad_digits": quad_digits.astype(np.uint64),
        "quad_zeros": quad_zeros,
        "point_low": low.view(np.uint64),
        "point_high": high.view(np.uint64),
        "point_dot": dot.view(np.uint64),
        "pow10": pow10,
        "pow10_hi": pow10_hi,
        "pow10_lo": pow10 - pow10_hi,
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _split(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Veltkamp split: a = hi + (a - hi) exactly, each part with at most 26
    significant bits.  Returns hi, written into out[0]; out[1] is scratch."""
    hi, c = out
    np.multiply(a, 134217729.0, out=c)  # 2^27 + 1
    np.subtract(c, a, out=hi)
    return np.subtract(c, hi, out=hi)


def _scaled_exactly(a: np.ndarray, p: np.ndarray, tables, out: np.ndarray) -> np.ndarray:
    """a * 10^p as hi + lo exactly (Dekker's two-product, 0 <= p <= 22).

    Returns out[:2], that is (hi, lo); out is (6, a.size), out[2:] scratch.
    """
    hi, lo, a_hi, a_lo, b, c = out
    np.multiply(a, np.take(tables["pow10"], p, out=b, mode="clip"), out=hi)
    _split(a, out[2:4])
    np.subtract(a, a_hi, out=a_lo)
    # lo = ((a_hi b_hi - hi) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, term by term
    np.take(tables["pow10_hi"], p, out=b, mode="clip")
    np.multiply(a_hi, b, out=lo)
    lo -= hi
    np.multiply(a_lo, b, out=c)
    np.take(tables["pow10_lo"], p, out=b, mode="clip")
    lo += np.multiply(a_hi, b, out=a_hi)
    lo += c
    lo += np.multiply(a_lo, b, out=a_lo)
    return out[:2]


def _out_of_decade(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1 where hi + lo < 10^16, +1 where it is >= 10^17, else 0."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _insert_points(body, p, tables, out, carry):
    """Put the point after digit 16 - p into the (m, 2) body words of cells of
    exponent 1 to 16 (p <= 15), in place: the digits after it move up one
    byte, and the 16th digit out into carry.  out is (2, m, 2) scratch."""
    shifted, table = out
    np.right_shift(body[:, 1], 56, out=carry)
    np.left_shift(body, 8, out=shifted)
    shifted[:, 1] |= np.right_shift(body[:, 0], 56, out=table[:, 0])
    body &= np.take(tables["point_low"], p, axis=0, out=table, mode="clip")
    shifted &= np.take(tables["point_high"], p, axis=0, out=table, mode="clip")
    body |= shifted
    body |= np.take(tables["point_dot"], p, axis=0, out=table, mode="clip")


def workspace(n: int) -> tuple:
    """Scratch arrays of format_cells for chunks of up to n cells.

    The (n, 4) slot words lie on a bytearray, which bytes.translate reads
    without a copy.  About 160 bytes per cell.
    """
    text = bytearray(n * _SLOT_WIDTH)
    words = np.frombuffer(text, dtype=np.uint64).reshape(n, _SLOT_WIDTH // 8)
    return text, words, np.empty((7, n)), np.empty((9, n), np.int64), np.empty((3, n), bool)


def format_cells(x: np.ndarray, row_ends: slice, scratch: tuple) -> bytes:
    """Each cell of x as "%.17g" followed by "," or, at the cells that row_ends
    picks, by a newline, as ASCII bytes.

    scratch is a ``workspace`` of at least x.size cells; the bytes returned
    do not share its memory.
    """
    t = _csv_tables()
    text, words, floats, ints, (fast, flag, flag2) = scratch
    a, hi, lo = floats[:3]
    # key is scratch until it holds the keep-mask rows, N and high until the
    # lead digit and the digit groups are split off
    p, lead, key, N, high = ints[:5]
    # per cell, the digit groups d1-4 and d9-12, then d5-8 and d13-16: the
    # low and the high halves of the two body words
    lows, highs = ints[5:].reshape(2, -1, 2)
    # a short chunk is padded with cells of the fast path, deleted at the end
    np.abs(x, out=a[: x.size])
    a[x.size :] = 1.0
    np.greater_equal(a, 1e-6, out=fast)
    fast &= np.less(a, 1e17, out=flag)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=flag))
    # the 17-digit integer: a * 10^p = hi + lo in [10^16, 10^17), p = 16 - exp
    log = floats[-1]  # a scratch row of _scaled_exactly, free until it runs
    np.clip(np.floor(np.log10(a, out=log), out=log), _MIN_EXP, 16, out=log)
    np.subtract(16, log, out=p, casting="unsafe")
    _scaled_exactly(a, p, t, floats[1:])
    # near a power of ten log10 can miss the decade: move p by one, and leave
    # the cells still outside it to "%.17g" (their digits are masked out)
    np.less_equal(hi, 1e16, out=flag)
    edge = np.flatnonzero(np.logical_or(flag, np.greater_equal(hi, 1e17, out=flag2), out=flag))
    step = _out_of_decade(hi[edge], lo[edge])
    moved = edge[step != 0]
    if moved.size:
        p[moved] = np.clip(p[moved] - step[step != 0], 0, 22)
        hi[moved], lo[moved] = _scaled_exactly(a[moved], p[moved], t, np.empty((6, moved.size)))
        fast[moved[_out_of_decade(hi[moved], lo[moved]) != 0]] = False
    # hi >= 2^53 is an even integer, so rounding lo half-to-even rounds hi + lo
    np.copyto(N, hi, casting="unsafe")
    N += np.rint(lo, out=key, casting="unsafe")
    # a carry to 10^17 would need a double within 5e-18 (relative) below a
    # power of ten, closer than any is in this range; "%.17g" would get it
    fast &= np.less(N, 10**17, out=flag)
    # the lead digit, two groups of eight digits and then four of four; numpy
    # divides by a constant much faster than np.divmod or np.remainder do
    np.floor_divide(N, 10**8, out=high)
    np.floor_divide(high, 10**8, out=lead)
    np.subtract(high, np.multiply(lead, 10**8, out=highs[:, 0]), out=highs[:, 0])
    np.subtract(N, np.multiply(high, 10**8, out=highs[:, 1]), out=highs[:, 1])
    np.floor_divide(highs, 10**4, out=lows)
    highs -= np.multiply(lows, 10**4, out=ints[3:5].reshape(-1, 2))
    # hi, lo and the scratch rows after them are spent: the body words, the
    # trailing zeros of the digit groups, the scratch of the shift and last
    # the keep-masks are gathered into them
    spent = floats[1:].view(np.uint64)
    body, halves = spent[:2].reshape(-1, 2), spent[2:4].reshape(-1, 2)
    np.take(t["quad_digits"], lows, out=body, mode="clip")
    body |= np.left_shift(np.take(t["quad_digits"], highs, out=halves, mode="clip"), 32, out=halves)
    # trailing zeros of the 17 digits (the lead digit is never 0)
    spent_ints = spent.view(np.int64)
    high_zeros = np.take(t["quad_zeros"], highs, out=spent_ints[2:4].reshape(-1, 2), mode="clip")
    low_zeros = np.take(t["quad_zeros"], lows, out=spent_ints[4:6].reshape(-1, 2), mode="clip")
    zeros = high
    np.copyto(zeros, high_zeros[:, 1])
    for j, quad_zeros in enumerate((low_zeros[:, 1], high_zeros[:, 0], low_zeros[:, 0])):
        np.add(zeros, quad_zeros, out=zeros, where=np.equal(zeros, 4 * j + 4, out=flag))

    # the row of the keep-mask: (sign, class, zeros), class exp - _MIN_EXP
    np.subtract(16 - _MIN_EXP, p, out=key)
    np.copyto(key, _FALLBACK, where=np.logical_not(fast, out=flag))
    fallback = np.flatnonzero(flag)
    key *= 17
    key += zeros
    sign = np.signbit(x, out=flag[: x.size])
    key[: x.size] += np.multiply(sign, 17 * (_FALLBACK + 1), out=N[: x.size])
    # each cell's two body words as one 16-byte item: numpy copies a column
    # of those much faster than rows of two words
    bodies = words[:, 1:3].view("V16")[:, 0]
    words[:, 0] = t["ends"][0]
    bodies[...] = body.view("V16")[:, 0]
    words[:, 3] = t["ends"][1]
    # cells of exponent 1 to 16 get their point on a gathered copy of theirs
    shifts = np.flatnonzero(np.less_equal(p, 15, out=flag))
    if shifts.size:
        m = shifts.size
        carry = N.view(np.uint64)[:m]
        points = np.take(body, shifts, axis=0, out=lows.view(np.uint64)[:m], mode="clip")
        at = np.take(p, shifts, out=ints[-1, :m], mode="clip")
        _insert_points(points, at, t, spent[2:].reshape(2, -1, 2)[:, :m], carry)
        bodies[shifts] = points.view("V16")[:, 0]
        words[shifts, 3] = np.bitwise_or(carry, t["ends"][2], out=carry)
    slots = words.view(np.uint8)
    np.add(lead, ord("0"), out=slots[:, _SLOT_LEAD], casting="unsafe")
    np.add(p, ord("0") - 16, out=slots[:, _SLOT_EXP], casting="unsafe")
    slots[row_ends, _SLOT_SEP] = ord("\n")
    words &= np.take(t["masks"], key, axis=0, out=spent[:4].reshape(-1, 4), mode="clip")
    words[x.size :] = 0
    out = text.translate(None, b"\0")

    if not fallback.size:
        return out
    # a fallback cell's slots hold its separator alone: put its text in front
    lengths = np.take(t["lengths"], key, out=N, mode="clip")
    seps = np.cumsum(lengths, out=lengths)[fallback] - 1
    view, pieces, start = memoryview(out), [], 0
    for sep, value in zip(seps.tolist(), x[fallback].tolist()):
        pieces += (view[start:sep], b"%.17g" % value)
        start = sep
    pieces.append(view[start:])
    return b"".join(pieces)
