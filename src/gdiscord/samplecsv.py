"""The sample CSV of :func:`gdiscord.family.sample_family`, written by an exact block kernel.

Every number is the text of :func:`gdiscord.serialize.fmt`.  Only ``sample``
and ``verify`` write a CSV, so this module is apart from
:mod:`gdiscord.serialize`, which every command loads.
"""

from __future__ import annotations

import functools
from typing import Iterator

from . import _numpy as np
from .serialize import fmt

SAMPLE_CSV_HEADER = "a,b,c,cp,r,tau,eta,sign"
_CSV_BLOCK_ROWS = 4096
# little-endian uint64 words of one CSV field: an 8-byte prefix (',', the
# sign, and '0.000' below 1) and a 16-byte body (12 digits and the point);
# 24 bytes also hold the widest fmt text, ',-1.23456789012e-308'
_CSV_FIELD = 3
_U64 = "<u8"


def _words(text: bytes, size: int):
    """``text``, NUL-padded to ``size`` uint64 words."""
    return np.frombuffer(text.ljust(8 * size, b"\0"), _U64)


@functools.cache
def _csv_tables():
    """The kernel's lookup tables, as little-endian uint64 words.

    * digits: 20,000 words of one 4-digit group each (in the low four
      bytes), first as all its digits, then with trailing zeros as NUL;
    * prefix: 32 words, ``","``, ``",-"``, ``",0.000"``, ... indexed by
      16 * (value < 0) + e + 4 for the decimal exponent e in [-4, 11];
    * by e + 4, the 128-bit masks (low word, high word) of the body: the
      integer part's bytes as ASCII '0', the bytes after the integer part
      (all 16 for e < 0), and the point;
    * by e + 4, the exact scale 10^(11 - e) as a float.
    """
    group = np.arange(10_000, dtype=np.int32)[:, None] // np.array([1000, 100, 10, 1], np.int32)
    group = (group % 10).astype(np.uint8)
    trail = np.logical_or.accumulate(group[:, ::-1] != 0, axis=1)[:, ::-1]
    ascii_ = group + np.uint8(ord("0"))
    digits = np.concatenate([ascii_, ascii_ * trail]).view("<u4").ravel().astype(_U64)
    prefix = b"".join((sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")).ljust(8, b"\0")
                      for sign in (b",", b",-") for e in range(-4, 12))
    body = []
    for e in range(-4, 12):
        int_bytes = max(e + 1, 0)
        zeros = int.from_bytes(b"0" * int_bytes, "little")
        after = (1 << 128) - (1 << 8 * int_bytes) if e >= 0 else (1 << 128) - 1
        point = ord(".") << 8 * int_bytes if e >= 0 else 0
        body.append([m >> shift & (2**64 - 1) for m in (zeros, after, point) for shift in (0, 64)])
    return (digits, np.frombuffer(prefix, _U64), *np.array(body, np.uint64).T.astype(_U64),
            np.array([10.0**(11 - e) for e in range(-4, 12)]))


def _csv_workspace(shape: tuple) -> tuple:
    """Scratch arrays for :func:`_csv_fields` on values of up to ``shape``.

    Two float, five int64, five uint64 and two bool arrays of ``shape``,
    stacked by dtype on a leading axis.
    """
    return (np.empty((2, *shape)), np.empty((5, *shape), np.int64),
            np.empty((5, *shape), np.uint64), np.empty((2, *shape), bool))


def _csv_fields(x: np.ndarray, out: np.ndarray, work: tuple) -> None:
    """Write ``"," + fmt(v)`` for each value of ``x`` to ``out``, as NUL-padded uint64.

    ``out`` has the shape of ``x`` plus a last axis of ``_CSV_FIELD`` words.
    ``work`` is a :func:`_csv_workspace` whose shape holds ``x`` (its first
    ``len(x)`` entries are used): every elementwise pass writes into it, so
    a call allocates only the results of its table lookups.

    For a value with decimal exponent e in [-4, 11] (fixed notation), one
    multiply by the exact 10^(11 - e) puts its 12 significant digits before
    the point; the product is within half an ulp (<= 2^-14 below 1e12) of
    the exact one, so ``rint`` gives the correctly rounded digits N wherever
    the fraction lies more than 2^-12 from 1/2.  The prefix word holds ','
    and the sign, and for e < 0 the '0.' and zeros before the digits.  The
    body holds N as three 4-digit words, NUL after its last nonzero digit
    but, for e >= 0, '0' through the integer part's e + 1 digits; when a
    fraction digit is left, the bytes from e + 1 on move up one byte and the
    point goes in between.  Ties, decade edges (the product within 1 of
    1e11 or 1e12), exponent notation, zero and non-finite values take
    :func:`fmt` itself.
    """
    digits, prefix, zeros_lo, zeros_hi, after_lo, after_hi, point_lo, point_hi, scale = _csv_tables()
    (ax, p), (e, d0, d1, d2, k), (lo, hi, up_lo, up_hi, t), (ok, m) = (w[:, :len(x)] for w in work)
    np.abs(x, out=ax)
    np.isfinite(ax, out=ok)
    ok &= np.greater(ax, 0.0, out=m)
    np.copyto(ax, 1.0, where=np.logical_not(ok, out=m))
    np.copyto(e, np.floor(np.log10(ax, out=p), out=p), casting="unsafe")
    ok &= np.greater_equal(e, -4, out=m)
    ok &= np.less_equal(e, 11, out=m)
    np.clip(e, -4, 11, out=e)
    e += 4
    np.multiply(ax, scale.take(e), out=p)
    ok &= np.greater_equal(p, 1e11 + 1.0, out=m)
    ok &= np.less_equal(p, 1e12 - 1.0, out=m)
    np.subtract(p, np.floor(p, out=ax), out=ax)
    ax -= 0.5
    ok &= np.greater(np.abs(ax, out=ax), 2.0**-12, out=m)
    np.rint(p, out=p)
    np.copyto(p, 1e11, where=np.logical_not(ok, out=m))
    np.copyto(d2, p, casting="unsafe")  # N, then its last 4-digit group
    # floor_divide by a scalar is about four times faster than divmod
    d2 -= np.multiply(np.floor_divide(d2, 10**8, out=d0), 10**8, out=k)
    d2 -= np.multiply(np.floor_divide(d2, 10**4, out=d1), 10**4, out=k)
    np.multiply(np.less(x, 0.0, out=m), 16, out=k)
    out[..., 0] = prefix.take(np.add(k, e, out=k))
    trail = digits[10_000:]
    np.bitwise_or(trail.take(d2), zeros_hi.take(e), out=hi)
    np.multiply(np.equal(d2, 0, out=m), 10_000, out=k)
    np.left_shift(digits.take(np.add(k, d1, out=k)), np.uint64(32), out=lo)
    np.bitwise_or(d1, d2, out=k)
    np.multiply(np.equal(k, 0, out=m), 10_000, out=k)
    lo |= digits.take(np.add(k, d0, out=k))
    lo |= zeros_lo.take(e)
    np.bitwise_and(lo, after_lo.take(e), out=up_lo)
    np.bitwise_and(hi, after_hi.take(e), out=up_hi)
    frac = np.not_equal(np.bitwise_or(up_lo, up_hi, out=t), 0, out=m)
    # the bytes after the integer part (up) move up one byte; the point goes in the gap
    lo ^= up_lo
    lo |= np.left_shift(up_lo, np.uint64(8), out=t)
    lo |= np.multiply(point_lo.take(e), frac, out=t)
    out[..., 1] = lo
    hi ^= up_hi
    hi |= np.left_shift(up_hi, np.uint64(8), out=t)
    hi |= np.right_shift(up_lo, np.uint64(56), out=t)
    hi |= np.multiply(point_hi.take(e), frac, out=t)
    out[..., 2] = hi
    for i in zip(*np.nonzero(np.logical_not(ok, out=m))):
        out[i] = _words(f",{fmt(float(x[i]))}".encode(), _CSV_FIELD)


def sample_csv_blocks(sample: FamilySample) -> Iterator[bytes]:
    """The sample CSV as ASCII bytes: the header line, then blocks of ``_CSV_BLOCK_ROWS`` rows.

    Fixed column order, every number as :func:`fmt` writes it.  Each row is
    built in fixed slots of uint64 words padded with NUL bytes, which
    ``translate`` drops.  ``sign`` is +-1.  One row buffer, one block of
    values and one :func:`_csv_workspace` serve every block of a call; the
    last, partial block uses their leading rows.
    """
    yield f"{SAMPLE_CSV_HEADER}\n".encode()
    text = f"{fmt(sample.a)},{fmt(sample.b)}".encode()
    head = _words(text, -(-len(text) // 8))
    ends = _words(b",-1\n", 1)[0], _words(b",1\n", 1)[0]
    cols = (sample.c, sample.cp, sample.r, sample.tau, sample.eta)
    block = min(_CSV_BLOCK_ROWS, sample.n)
    rows = np.empty((block, len(head) + 5 * _CSV_FIELD + 1), _U64)
    rows[:, :len(head)] = head
    values = np.empty((block, 5))
    work = _csv_workspace(values.shape)
    for lo in range(0, sample.n, _CSV_BLOCK_ROWS):
        size = min(block, sample.n - lo)
        part = slice(lo, lo + size)
        for j, col in enumerate(cols):
            values[:size, j] = col[part]
        # a view of each row's field words, as 5 fields of _CSV_FIELD words
        _csv_fields(values[:size], rows[:size, len(head):-1].reshape(size, 5, _CSV_FIELD), work)
        rows[:size, -1] = np.where(sample.sign[part] < 0.0, *ends)
        yield rows[:size].tobytes().translate(None, b"\0")


def sample_csv_lines(sample: FamilySample) -> Iterator[str]:
    """CSV lines (no newline) of :func:`sample_csv_blocks`, header first."""
    for block in sample_csv_blocks(sample):
        yield from block.decode("ascii").split("\n")[:-1]


def sample_to_csv(sample: FamilySample) -> str:
    """The whole CSV text of :func:`sample_csv_blocks`."""
    return b"".join(sample_csv_blocks(sample)).decode("ascii")
