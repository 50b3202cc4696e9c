"""Vectorized "%.17g": chunks of floats as the text of CSV cells.

``format_cells`` writes each cell of a chunk as ``"%.17g" % value`` followed
by a separator, byte for byte, in a few dozen NumPy passes instead of one
Python call per cell.  Its scratch arrays come from ``workspace``, which a
writer allocates once and hands to every chunk, so that no chunk allocates
arrays of its own size; every ``np.take`` gets ``mode="clip"`` (its indices
are in range) and a C-contiguous ``out``, which it fills without a buffer.
``serialize`` lays out the rows and the chunks.
"""

from __future__ import annotations

import functools

import numpy as np

# One cell's 48 byte slots, six 8-byte words: the sign, the "0.000" prefix,
# the 17 digits each followed by a ".", "e-0" and one exponent digit, the
# separator, and three unused bytes.  A keep-mask chosen by (sign, decimal
# exponent, trailing zeros) zeroes the bytes that are not in the "%.17g" text,
# and bytes.translate deletes them.
_SLOT_WIDTH = 48
_SLOT_LEAD = 6
_SLOT_EXP = 43
_SLOT_SEP = 44
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
    digit = [_SLOT_LEAD + 2 * j for j in range(17)]
    for cls in range(_FALLBACK):
        exp = cls + _MIN_EXP
        for zeros in range(17):
            m = masks[:, cls, zeros]
            last = 16 - zeros  # index of the last nonzero digit
            if exp < -4:  # d.ddde-0X
                m[:, digit[0]] = True
                m[:, _SLOT_EXP - 3 : _SLOT_EXP + 1] = True
                point = 0
            elif exp < 0:  # 0.000ddd
                m[:, 1 : 2 - exp] = True  # "0." and -exp - 1 zeros
                m[:, digit[0] : digit[last] + 1 : 2] = True
                continue
            else:  # ddd.ddd
                m[:, digit[0] : digit[exp] + 1 : 2] = True
                point = exp
            if last > point:
                m[:, digit[point] + 1] = True
                m[:, digit[point + 1] : digit[last] + 1 : 2] = True
    masks = masks.reshape(-1, _SLOT_WIDTH)
    quads = np.arange(10**4)
    # "d.d.d.d." of 0..9999, read as one 8-byte word each
    quad_digits = np.full((10**4, 8), ord("."), dtype=np.uint8)
    quad_digits[:, ::2] = (quads[:, None] // 10 ** np.arange(3, -1, -1)) % 10 + ord("0")
    quad_zeros = np.zeros(10**4, dtype=np.intp)  # trailing zeros of "dddd"
    for j in (1, 2, 3, 4):
        quad_zeros += quads % 10**j == 0
    pow10 = 10.0 ** np.arange(23)  # exact doubles
    pow10_hi = _split(pow10, np.empty((2, pow10.size)))
    tables = {
        # the first and the last word of the slots
        "ends": np.frombuffer(b"-0.0000." + b"e-00,\0\0\0", dtype=np.uint64).copy(),
        "masks": (masks * np.uint8(255)).view(np.uint64),
        "lengths": masks.sum(axis=1),
        "quad_digits": quad_digits.view(np.uint64).ravel(),
        "quad_zeros": quad_zeros,
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


def workspace(n: int) -> tuple:
    """Scratch arrays of format_cells for chunks of up to n cells.

    The (n, 6) slot words lie on a bytearray, which bytes.translate reads
    without a copy.  About 200 bytes per cell.
    """
    text = bytearray(n * _SLOT_WIDTH)
    words = np.frombuffer(text, dtype=np.uint64).reshape(n, _SLOT_WIDTH // 8)
    return text, words, np.empty((8, n)), np.empty((11, n), np.int64), np.empty((3, n), bool)


def format_cells(x: np.ndarray, row_ends: slice, scratch: tuple) -> bytes:
    """Each cell of x as "%.17g" followed by "," or, at the cells that row_ends
    picks, by a newline, as ASCII bytes.

    scratch is a ``workspace`` of at least x.size cells; the bytes returned
    do not share its memory.
    """
    t = _csv_tables()
    text, words, floats, ints, (fast, flag, flag2) = scratch
    cells, a, hi, lo = floats[:4]
    p, N, high, lead, zeros, key, spare = ints[:7]
    quads = ints[7:]
    # a short chunk is padded with cells of the fast path, deleted at the end
    cells[: x.size] = x
    cells[x.size :] = 1.0
    np.abs(cells, out=a)
    np.greater_equal(a, 1e-6, out=fast)
    fast &= np.less(a, 1e17, out=flag)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=flag))
    # the 17-digit integer: a * 10^p = hi + lo in [10^16, 10^17), p = 16 - exp
    log = floats[-1]  # a scratch row of _scaled_exactly, free until it runs
    np.clip(np.floor(np.log10(a, out=log), out=log), _MIN_EXP, 16, out=log)
    np.subtract(16, log, out=p, casting="unsafe")
    _scaled_exactly(a, p, t, floats[2:])
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
    N += np.rint(lo, out=spare, casting="unsafe")
    # a carry to 10^17 would need a double within 5e-18 (relative) below a
    # power of ten, closer than any is in this range; "%.17g" would get it
    fast &= np.less(N, 10**17, out=flag)
    # the lead digit and four groups of four digits; numpy divides by a
    # constant much faster than np.divmod does
    np.floor_divide(N, 10**8, out=high)
    np.floor_divide(high, 10**8, out=lead)
    np.subtract(high, np.multiply(lead, 10**8, out=quads[0]), out=quads[0])
    np.subtract(N, np.multiply(high, 10**8, out=quads[2]), out=quads[2])
    np.remainder(quads[::2], 10**4, out=quads[1::2])
    quads[::2] //= 10**4
    # trailing zeros of the 17 digits (the lead digit is never 0)
    np.take(t["quad_zeros"], quads[3], out=zeros, mode="clip")
    for j in (2, 1, 0):
        np.take(t["quad_zeros"], quads[j], out=spare, mode="clip")
        np.add(zeros, spare, out=zeros, where=np.equal(zeros, 12 - 4 * j, out=flag))

    # the row of the keep-mask: (sign, class, zeros), class exp - _MIN_EXP
    np.subtract(16 - _MIN_EXP, p, out=key)
    np.copyto(key, _FALLBACK, where=np.logical_not(fast, out=flag))
    fallback = np.flatnonzero(flag)
    np.add(key, _FALLBACK + 1, out=key, where=np.signbit(cells, out=flag))
    key *= 17
    key += zeros
    slots = words.view(np.uint8)
    words[:, 0], words[:, 5] = t["ends"]
    # hi, lo and the scratch rows after them are spent: the digit words and
    # then the keep-masks are gathered into them
    spent = floats[2:].view(np.uint64)
    words[:, 1:5] = np.take(t["quad_digits"], quads, out=spent[:4], mode="clip").T
    np.add(lead, ord("0"), out=slots[:, _SLOT_LEAD], casting="unsafe")
    np.add(p, ord("0") - 16, out=slots[:, _SLOT_EXP], casting="unsafe")
    slots[row_ends, _SLOT_SEP] = ord("\n")
    words &= np.take(t["masks"], key, axis=0, out=spent.reshape(-1, 6), mode="clip")
    words[x.size :] = 0
    out = text.translate(None, b"\0")

    if not fallback.size:
        return out
    # a fallback cell's slots hold its separator alone: put its text in front
    lengths = np.take(t["lengths"], key, out=spare, mode="clip")
    seps = np.cumsum(lengths, out=lengths)[fallback] - 1
    view, pieces, start = memoryview(out), [], 0
    for sep, value in zip(seps.tolist(), x[fallback].tolist()):
        pieces += (view[start:sep], b"%.17g" % value)
        start = sep
    pieces.append(view[start:])
    return b"".join(pieces)
