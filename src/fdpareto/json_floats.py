"""The token json.dumps writes for each float of an array, built in numpy.

`json_floats` is the shortest round-trip kernel of the CLI's certificates:
Python's repr of every value, as padded 64-bit words in the layout of
`pareto._g12`, from a double-double scaling to 17 digits and the same
four-digit tables.  Only `certify` writes such tokens, so the CLI imports
this module on first use: other runs neither compile it nor build its
tables.
"""

from __future__ import annotations

import numpy as np

from .pareto import _DIGITS4, _PAD_BYTE, _TRAILING4

# The table covers the decimal exponents e10 of _REPR_E10: there
# 10**(16 - e10) and x * (2**27 + 1) stay normal and finite.  A power of ten
# is kept as hi + lo, cut from the exact value to _REPR_BITS bits, so
# y = |x| * 10**(16 - e10) comes out within about 1e-12 of its exact value,
# in units of its last (17th) digit.
_REPR_E10 = range(-292, 300)
_REPR_BITS = 106
_SPLIT = 2.0**27 + 1.0
# A decision this close to its boundary (units of y) is left to repr.
_REPR_MARGIN = 1e-6
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _repr_powers() -> np.ndarray:
    """Rows hi, lo, hi's upper and lower halves: 10**(16 - e10) for each e10 of the table.

    Each power is an integer t of _REPR_BITS bits times 2**e: exact while
    it fits, then cut after each x10 or /10 step, about 2**-97 off after the
    300 steps.  hi holds t's upper 53 bits and lo the rest.  The halves are
    Veltkamp's split of hi (26 bits each), so the four products of x's
    halves and hi's are exact.
    """
    def scaled(count: int, up: bool) -> tuple[list[int], list[int]]:
        ts, es = [], []
        t, e = 1 << _REPR_BITS, -_REPR_BITS
        for _ in range(count):
            if up:
                t *= 10
            else:
                t = (t << 4) // 10
                e -= 4
            cut = t.bit_length() - _REPR_BITS
            t >>= cut
            e += cut
            ts.append(t)
            es.append(e)
        return ts, es

    up, e_up = scaled(16 - _REPR_E10[0], True)
    down, e_down = scaled(_REPR_E10[-1] - 16, False)
    ts = up[::-1] + [1 << _REPR_BITS] + down
    e = np.array(e_up[::-1] + [-_REPR_BITS] + e_down)
    low = (1 << 53) - 1
    hi = np.ldexp(np.array([t >> 53 for t in ts], dtype=np.float64), e + 53)
    lo = np.ldexp(np.array([t & low for t in ts], dtype=np.float64), e)
    mant, ex = np.frexp(hi)
    c = mant * _SPLIT
    upper = c - (c - mant)
    return np.stack((hi, lo, np.ldexp(upper, ex), np.ldexp(mant - upper, ex)))


def _repr_layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kinds of text `json_floats` writes, and each e10's kind and exponent.

    A kind is a class of e10 (0-19: e10 + 4 for the fixed form, -4 <= e10
    < 16; 20 and 21: the exponent form with two and three exponent digits),
    the count j of trailing digits dropped from the 17 (0-2) and the sign,
    as column 6 * class + 2 * j + sign.  Its rows: the text's fixed bytes
    as three words (the sign, "0." and the zeros after it, the point,
    ".0" after an integer; 0 where a digit or the exponent goes, padding past
    the end); the masks of the digits written in place (two words) and of
    those moved on past the point (three); and the shifts, in bits, of
    the two groups and of the exponent within the third word.  Returns the
    kinds, each e10's class times 6, and each e10's exponent text ("e-05",
    "e+100"; 0 for the fixed form) as a word.
    """
    texts, shifts = [], []
    for cls in range(22):
        for j in range(3):
            nsig = 17 - j
            digits = "\0" * nsig
            if cls < 4:  # 0.000ddd
                in_place, after = 0, 5 - cls
                text = "0." + "0" * (3 - cls) + digits
            elif cls < 20:  # ddd.ddd, or ddd0.0
                decpt = cls - 3
                in_place, after = min(decpt, nsig), 1
                text = (digits[:decpt] + "." + digits[decpt:] if decpt < nsig
                        else digits + "0" * (decpt - nsig) + ".0")
            else:  # d.ddde-05
                in_place, after = 1, 1
                text = "\0." + digits[1:] + "\0" * (cls - 16)
            masks = ((_PAD_BYTE * in_place).ljust(16, b"\0")
                     + (bytes(in_place) + _PAD_BYTE * (nsig - in_place)).ljust(24, b"\0"))
            for sign in (0, 1):
                texts.append(("-" * sign + text).encode().ljust(24, _PAD_BYTE) + masks)
                shifts.append((8 * sign, 8 * (sign + after), 8 * (sign + nsig - 15)))
    words = np.frombuffer(b"".join(texts), dtype="<u8").reshape(-1, 8)
    kinds = np.concatenate((words, np.array(shifts, dtype=np.uint64)), axis=1).T
    e10 = np.arange(_REPR_E10.start, _REPR_E10.stop)
    a = np.abs(e10).astype(np.uint64)
    digits = np.where(a < 100, (a // 10 + 48) | (a % 10 + 48) << 8,
                      (a // 100 + 48) | (a // 10 % 10 + 48) << 8 | (a % 10 + 48) << 16)
    sign = np.where(e10 < 0, ord("-"), ord("+")).astype(np.uint64)
    exponent = ord("e") | sign << 8 | digits << 16
    fixed = (-4 <= e10) & (e10 < 16)
    exponent[fixed] = 0
    cls = np.where(fixed, e10 + 4, np.where(a < 100, 20, 21))
    return np.ascontiguousarray(kinds, dtype=np.uint64), 6 * cls, exponent


_POW10 = _repr_powers()
_REPR_KINDS, _REPR_CLASS6, _REPR_EXPONENT = _repr_layouts()


def _repr_token(v: float) -> str:
    """json.dumps' token of one float: its repr, with json's NaN and infinities."""
    t = float.__repr__(v)
    return _JSON_NONFINITE.get(t, t)


def _shifted(w0: np.ndarray, w1: np.ndarray, w2, s: np.ndarray):
    """The 24 bytes in (w0, w1, w2) moved on by s / 8 bytes, for s in 0..56."""
    back = 63 - s
    return w0 << s, w1 << s | (w0 >> 1) >> back, w2 << s | (w1 >> 1) >> back


def json_floats(x: np.ndarray) -> np.ndarray:
    """The token json.dumps writes for each value of x, as (3, x.size) words.

    x is a contiguous float64 array; the words hold each token's bytes,
    first byte lowest, padded with 0xFF as `pareto._g12`'s.  A token is
    the shortest decimal that reads back as the value (Python's
    repr; the nearest such decimal where several have that length), spelled
    the way repr spells it, or NaN, Infinity or -Infinity.  Each distinct
    value (by bit pattern) is formatted once.  log10 proposes the decimal
    exponent e10, and one TwoProduct with the table's 10**(16 - e10) gives
    y = |x| * 10**(16 - e10) in [1e16, 1e17) as an int64 and a fraction.
    The rounding interval of x is y +- h in the same units, h in
    (0.55, 11.1], closed where x's mantissa is even, as round-half-even
    reads a decimal back.  The digits are the nearest multiple of 10**j to
    y for the largest j <= 2 for which it lies in the interval (j = 0
    always does), stripped of j zeros.  `_DIGITS4` gives the text of each
    four of them, and the kind's layout where they, the point and the
    exponent go: repr writes the exponent form for e10 < -4 and
    e10 >= 16, and ".0" after an integer.

    A value is formatted by `_repr_token` instead when it is zero,
    subnormal, not finite or outside the table, or y falls outside
    [1e16, 1e17) (log10 was off); when a distance that decides j, or which
    multiple is nearest, lies within `_REPR_MARGIN` of its boundary; when
    its shortest decimal has 14 digits or fewer; and when it is a power of
    two whose decimal lies more than h / 2 below it, where its interval
    ends.  So no byte depends on how log10 rounds.
    """
    bits, at = np.unique(x.view(np.uint64), return_inverse=True)
    x = bits.view(np.float64)
    ax = np.abs(x)
    ok = (ax >= 1e-292) & (ax < 1e300)
    ax[~ok] = 1.5
    e10 = np.log10(ax)
    np.floor(e10, out=e10)
    i = e10.astype(np.intp)
    i -= _REPR_E10[0]
    hi, lo, upper, lower = _POW10.take(i, axis=1, mode="clip")
    # TwoProduct: ax * hi = p + err exactly, Veltkamp-splitting ax
    p = ax * hi
    c = ax * _SPLIT
    xu = c - (c - ax)
    xl = ax - xu
    err = ((xu * upper - p) + xu * lower + xl * upper) + xl * lower
    err += ax * lo
    # p >= 2**53 is an integer where y is in range; the clamp keeps the cast defined
    n = np.minimum(p, 2e17).astype(np.int64)
    whole = np.floor(err)
    n += whole.astype(np.int64)
    ok &= (n >= 10**16) & (n < 10**17)
    # y = 100 * q + t, 0 <= t < 100, and the candidates: t's nearest multiples of 1, 10, 100
    q = n // 100
    t = (n - 100 * q).astype(np.float64)
    t += err - whole
    # the rounding interval of x is y +- h in the same units, closed where
    # x's mantissa is even; the nearest multiple of 1, 10 and 100 to y
    h = (ax.view(np.uint64) & np.uint64(0x7FF0_0000_0000_0000)).view(np.float64) * hi
    h *= 2.0**-53  # half of x's unit in the last place
    even = (bits & np.uint64(1)) == 0
    best = np.rint(t)
    near = np.abs(t - best)
    by10 = np.rint(t * 0.1) * 10.0
    d10 = np.abs(t - by10)
    by100 = np.rint(t * 0.01) * 100.0
    d100 = np.abs(t - by100)
    in10 = (d10 < h) | even & (d10 == h)
    in100 = (d100 < h) | even & (d100 == h)
    # each decision that picks j, and the nearest multiple, must stand clear of its boundary
    ok &= (np.abs(d10 - h) >= _REPR_MARGIN) & (np.abs(d100 - h) >= _REPR_MARGIN)
    ok &= in100 | (np.where(in10, d10 - 5.0, near - 0.5) < -_REPR_MARGIN)
    np.copyto(best, by10, where=in10)
    np.copyto(best, by100, where=in100)
    # below a power of two the interval reaches only h / 2 down
    ok &= ((bits & np.uint64(2**52 - 1)) != 0) | (t - best < 0.5 * h - _REPR_MARGIN)
    n = 100 * q
    n += best.astype(np.int64)
    # the 17 digits: four groups of four, then the last
    high = n // 10
    last = n - 10 * high
    g = np.stack((high // 10**8, high))
    g[1] -= g[0] * 10**8
    first = g // 10**4
    g -= first * 10**4
    ok &= ~in100 | (_TRAILING4.take(g[1], mode="clip") < 2)
    a = _DIGITS4.take(first[0], mode="clip") | _DIGITS4.take(g[0], mode="clip") << 32
    b = _DIGITS4.take(first[1], mode="clip") | _DIGITS4.take(g[1], mode="clip") << 32
    kind = _REPR_CLASS6.take(i, mode="clip")
    kind += 2 * in10
    kind += 2 * in100
    kind += np.signbit(x)
    (w0, w1, w2, mask0, mask1, move0, move1, move2, s_in, s_move, s_exp) = (
        row.take(kind) for row in _REPR_KINDS)
    for word, part in zip((w0, w1, w2), _shifted(a & mask0, b & mask1, 0, s_in)):
        word |= part
    last = last.astype(np.uint64) + ord("0")
    for word, part in zip((w0, w1, w2), _shifted(a & move0, b & move1, last & move2, s_move)):
        word |= part
    w2 |= _REPR_EXPONENT.take(i, mode="clip") << s_exp
    words = np.stack((w0, w1, w2))
    slow = (~ok).nonzero()[0]
    texts = b"".join(_repr_token(v).encode().ljust(24, _PAD_BYTE) for v in x[slow].tolist())
    words[:, slow] = np.frombuffer(texts, dtype="<u8").reshape(-1, 3).T
    return words.take(at, axis=1)
