"""Decimal spelling of float64 arrays, byte for byte as CPython's.

`spell` gives, for every value v of a float64 array, the bytes of
'%.17g' % v or of repr(v), the shortest decimal that reads back to v (the
spelling of json), from exact numpy arithmetic:

- the decimal exponent E of |v| from its binary exponent (Ryu's
  floor(e2 log10 2)) and one comparison with the least double >= 10**(E+1);
- V = |v| 10**(16 - E) exactly, as the sum p + r of Dekker's two-product
  (Numer. Math. 18, 1971), for 10**(16 - E) exact, that is E in -6..16;
- its 17 digits rounded to even in int64 and, for repr, the shortest
  decimal within half an ulp, from the nearest multiples of 10 and 100;
- the digits in ASCII from a table of 4-digit words, laid out with slices
  per (exponent, sign) group of the rows sorted by it.

What it cannot certify, Python spells: ±0.0, |v| below 1e-6 (subnormals
among them) or from 1e17 up, and, for repr, a shortest decimal at exactly
half an ulp (where the parity of v decides).  `harness._write_rows` writes every
table of the package with it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spell"]


def _tables():
    """10**s and its two 26-bit halves for s = 0..22 (the powers of ten
    that are exact doubles), the least double >= 10**k for k = -6..17, and
    the ASCII of the 4-digit words 0000..9999 as uint32, first in full,
    then with their trailing zeros as NUL."""
    p10 = np.array([float(10 ** s) for s in range(23)])
    split = p10 * 134217729.0  # Veltkamp's 2**27 + 1
    p10_hi = split - (split - p10)
    least = []
    for k in range(-6, 18):
        c = float(f"1e{k}")
        num, den = c.as_integer_ratio()
        if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0):
            c = float(np.nextafter(c, np.inf))
        least.append(c)
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    words = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    words[..., 0] = ascii_digits[:, None, None, None]
    words[..., 1] = ascii_digits[:, None, None]
    words[..., 2] = ascii_digits[:, None]
    words[..., 3] = ascii_digits
    words[1, :, :, :, 0, 3] = 0
    words[1, :, :, 0, 0, 2] = 0
    words[1, :, 0, 0, 0, 1] = 0
    words[1, 0, 0, 0, 0, 0] = 0
    return (p10, p10_hi, p10 - p10_hi, np.array(least),
            words.view(np.uint32).ravel())


_P10, _P10_HI, _P10_LO, _LEAST, _WORDS = _tables()


def _round_to(W, f, q: int):
    """(D, d): the multiple D q nearest to V = W + f, ties to even D, and
    d = |V - D q|, exactly, for int64 W, 0 <= f < 1 and q = 10 or 100."""
    quot = W // q
    rem = (W - quot * q).astype(np.float64)
    half = q // 2 - rem
    up = (f > half) | ((f == half) & (quot & 1 == 1))
    return quot + up, np.where(up, (q - rem) - f, rem + f)


def _decimal(x: np.ndarray, shortest: bool):
    """(M, E, fast): |x| = M 10**(E - 16) with 10**16 <= M < 10**17, M the
    17 digits of |x| rounded to even, or those of its shortest decimal
    that reads back to x followed by zeros, and where fast is False, M
    and E are not certified (x is spelled by Python)."""
    bits = x.view(np.int64)
    biased = (bits >> 52) & 0x7ff
    ax = np.abs(x)
    # the decimal exponent: floor(e2 log10 2) (Ryu's 78913 / 2**18), or one
    # more where |x| reaches the next power of ten
    elo = ((biased - 1023) * 78913) >> 18
    E = elo + (ax >= _LEAST[np.clip(elo + 7, 0, 23)])
    fast = (E >= -6) & (E <= 16)
    ax = np.where(fast, ax, 1.0)
    E = np.where(fast, E, 0)
    # V = |x| 10**s = p + r exactly (Dekker's two-product), 1e16 <= V < 1e17
    s = 16 - E
    c, c_hi, c_lo = _P10[s], _P10_HI[s], _P10_LO[s]
    p = ax * c
    split = ax * 134217729.0
    a_hi = split - (split - ax)
    a_lo = ax - a_hi
    r = a_lo * c_lo - (((p - a_hi * c_hi) - a_lo * c_hi) - a_hi * c_lo)
    # V = W + f, 0 <= f < 1, where f is exact: V's bits below 2**0 are at
    # most 51, as |x| 10**s has at most 105 and V >= 2**53; 17 digits of V
    # are M, rounded to even
    fr = np.floor(r)
    W = p.astype(np.int64) + fr.astype(np.int64)
    f = r - fr
    M = W + (f > 0.5) + ((f == 0.5) & (W & 1 == 1))
    if shortest:
        # within h, half an ulp of |x| times 10**s (h < 12), lie at most two
        # multiples of 10 and one of 100: the one of 100, else the nearer
        # one of 10, else M, stripped of its trailing zeros, is the shortest
        # decimal that reads back to x.  At a distance of exactly h, x's
        # parity decides: left to Python.  Below a power of two the
        # interval reaches only h / 2, but none of the 76 powers of two
        # here has its decimal below it (test_edges_spell_as_python checks
        # them all)
        h = ((np.where(fast, biased, 1023) - 53) << 52).view(np.float64) * c
        D10, d10 = _round_to(W, f, 10)
        D100, d100 = _round_to(W, f, 100)
        fast &= (d10 != h) & (d100 != h)
        M = np.where(d100 < h, D100 * 100, np.where(d10 < h, D10 * 10, M))
    # no rounding reaches 10**17: only a double below 10**(E + 1) that
    # 10**(E + 1) reads back to could, and the doubles nearest to 1e-5,
    # ..., 1e17 all lie at or above them (test_edges_spell_as_python)
    return M, E, fast


def spell(x: np.ndarray, shortest: bool):
    """(spelled, python): the bytes of '%.17g' % v, or of repr(v) if
    shortest, for each value v of the contiguous float64 array x, as a
    NUL-padded S24 array, and the indices of the values Python spelled."""
    n = len(x)
    M, E, fast = _decimal(x, shortest)
    # the 17 digits of M as five ASCII words in the columns 3..19 of full
    # and bare, the leading digit in the first; a word of bare is stripped
    # of its trailing zeros where every word after it is 0000
    key = (E + 6) * 2 + np.signbit(x)
    order = np.argsort(key.astype(np.int16), kind="stable")
    idx = np.empty((n, 5), np.intp)
    high, low = np.divmod(M[order], 10 ** 8)
    np.divmod(high, 10 ** 8, out=(idx[:, 0], high))
    np.divmod(high, 10 ** 4, out=(idx[:, 1], idx[:, 2]))
    np.divmod(low, 10 ** 4, out=(idx[:, 3], idx[:, 4]))
    full = _WORDS.take(idx)
    bare = full.copy()
    bare[:, 4] = _WORDS.take(idx[:, 4] + 10000)
    rows = np.flatnonzero(idx[:, 4] == 0)
    for j in (3, 2, 1):
        bare[rows, j] = _WORDS.take(idx[rows, j] + 10000)
        rows = rows[idx[rows, j] == 0]
    full, bare = full.view(np.uint8), bare.view(np.uint8)
    # one layout of slices per (exponent, sign) group of the sorted rows
    out = np.zeros((n, 24), np.uint8)
    bounds = np.cumsum(np.bincount(key, minlength=48))
    fixed_end = 16 if shortest else 17
    for g, (start, stop) in enumerate(zip(np.r_[0, bounds[:-1]], bounds)):
        if start == stop:
            continue
        Eg, o = g // 2 - 6, g % 2
        row, fg, bg = out[start:stop], full[start:stop], bare[start:stop]
        if o:
            row[:, 0] = ord("-")
        if 0 <= Eg < fixed_end:
            row[:, o:o + Eg + 1] = fg[:, 3:Eg + 4]
            if Eg < 16:
                # an integral value keeps its point as ".0" (repr) or
                # loses it (%.17g)
                row[:, o + Eg + 2:o + 18] = bg[:, Eg + 4:]
                if shortest:
                    row[:, o + Eg + 1] = ord(".")
                    row[:, o + Eg + 2] |= ord("0")
                else:
                    row[:, o + Eg + 1] = ord(".") * (bg[:, Eg + 4] != 0)
        elif -4 <= Eg < 0:
            row[:, o:o + 1 - Eg] = ord("0")
            row[:, o + 1] = ord(".")
            row[:, o + 1 - Eg:o + 18 - Eg] = bg[:, 3:]
        else:
            # d.ddd, or d without the point, then e-05 and the like
            row[:, o] = fg[:, 3]
            row[:, o + 1] = ord(".")
            row[:, o + 2:o + 18] = bg[:, 4:]
            frac = np.count_nonzero(bg[:, 4:], axis=1)
            at = o + 1 + frac + (frac > 0)
            for j, ch in enumerate(b"e%+03d" % Eg):
                row[np.arange(stop - start), at + j] = ch
    spelled = np.empty(n, "S24")
    spelled[order] = out.view("S24").ravel()
    python = np.flatnonzero(~fast)
    if len(python):
        spelled[python] = [(repr(v) if shortest else "%.17g" % v).encode()
                           for v in x[python].tolist()]
    return spelled, python
