"""Exact bulk text of float64 values, a chunk at a time: ``'%.17g' % v`` and ``repr(v)``.

A finite nonzero ``v`` is first scaled to ``D = |v| * 10**(16 - k)`` in
``[10**16, 10**17)``.  Python's ``%`` and ``repr`` find their digits with
Gay's bignum dtoa, once per value; here ``D`` comes from double-double
arithmetic (Dekker, "A floating-point technique for extending the available
precision", 1971) over a whole batch.  Write ``10**p = (hi + lo) * 2**s``
with ``p = 16 - k`` and ``hi + lo`` in ``[1, 2)``, both rounded from exact
integers.  Then ``D = (|v| * 2**s) * (hi + lo)``, where the scaling by
``2**s`` is exact and the product with ``hi`` is split exactly by Veltkamp's
halves, so ``D`` is known as a floor and a fraction to about ``1e-14``
absolute.  ``k`` starts as ``floor(log10 |v|)`` and moves by one where the
unrounded floor of ``D`` falls outside ``[10**16, 10**17)``.

The two texts differ in their digits ``R * 10**(k - 16)``, an integer ``R``
in ``[10**16, 10**17]`` whose trailing zeros are dropped, where ``10**17``
carries into ``k + 1``:

- ``'%.17g'`` takes the ``R`` nearest to ``D``.
- ``repr`` takes the shortest ``R`` strictly inside the rounding interval of
  ``v``, and of those the nearest (Steele and White, "How to print
  floating-point numbers accurately", 1990; Adams, "Ryu", PLDI 2018).  With
  ``M`` the 53-bit integer mantissa, the interval reaches ``D / (2M)`` above
  ``D`` and as far below, or half as far when ``M`` is a power of two.  It
  is less than 23 units of ``D`` wide and always holds the ``R`` nearest
  ``D``.  A text of 15 digits or fewer is a multiple of 100, of which the
  interval holds at most one, so ``R`` is that multiple where there is one;
  else a multiple of 10 inside it, the nearer where both about ``D`` are;
  else the nearest integer.

Each decision compares a remainder of ``D`` with half its unit or a distance
with its gap, and is exact unless the two lie within ``1e-9`` of each other.
Such a value, a value that is not finite and, for ``repr``, a subnormal or
the least normal value (whose lower gap is not half its upper one) is
formatted by ``%`` or ``repr`` itself; every other decision is far outside
the arithmetic's error, and the bytes are Python's by construction.

The layouts: ``'%.17g'`` is C's ``%g`` at precision 17, fixed notation for
``-4 <= k < 17`` with no point on an integral value, the zeros ``0`` and
``-0``; ``repr`` uses fixed notation for ``-4 <= k < 16`` with ``.0`` on an
integral value, the zeros ``0.0`` and ``-0.0``.  Otherwise both read
``d.ddde+XX``, or ``de+XX`` for one digit, with three exponent digits once
``|k| >= 100``.  Each value owns at least four 64-bit words of byte slots, a
slot left 0 when its character is absent, and its text ends with the text
that follows it in its row, from the last slot of its fourth word on: a CSV
comma or newline, the JSON between two numbers.  One ``bytes.translate``
drops the empty slots.  The tables are built on first use, each power of ten
on the first use of its exponent, so importing this module does no work.

:func:`_write_rows` is the one path from a trajectory's columns to its file:
one share of rows per usable CPU, each cut once into chunks for the kernel,
whose columns it asks for a chunk at a time.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from functools import lru_cache

import numpy as np

__all__: list[str] = []

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter of a double into 26-bit halves
_LOW, _HIGH = 10**16, 10**17  # the range of R, 17 digits
_DOUBT = 1e-9  # a decision this close is left to % or repr itself
_K = 330  # |k| < _K for every finite double
_CHUNK = 4096  # values formatted at once, which bounds the temporaries
_SHARE_ROWS = 1024  # rows begun per share at most: a write of this many or fewer forks nothing
_REFUSED = 3  # the exit status of a writer process whose spool holds a ValueError's text
_TINY = np.finfo(float).tiny  # the least normal value
_printf = "%.17g".__mod__
_repr = float.__repr__


@lru_cache(maxsize=None)
def _power(p: int) -> tuple[float, float, int]:
    """``(hi, lo, s)`` with ``10**p = (hi + lo) * 2**s`` and ``hi + lo`` in [1, 2)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    s = num.bit_length() - den.bit_length()
    if (num << max(-s, 0)) < (den << max(s, 0)):
        s -= 1
    num, den = num << max(-s, 0), den << max(s, 0)
    hi = num / den  # both divisions round correctly
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b), s


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of ``a * 10**(16 - k)`` for positive finite ``a``."""
    index = 16 - k
    base = int(index.min())
    index -= base
    used = np.zeros(int(index.max()) + 1, bool)
    used[index] = True
    hi, lo, s = np.zeros((3, used.size))
    for i in np.flatnonzero(used):
        hi[i], lo[i], s[i] = _power(base + int(i))
    hi, lo = hi.take(index), lo.take(index)
    w = np.ldexp(a, s.astype(np.int32).take(index))  # exact: w is about D, a normal double
    low = w * lo
    top = w * hi
    # top's rounding error, exactly: Dekker's product of the halves of w and hi.
    w_head = _SPLIT * w
    w_head -= w_head - w
    w -= w_head
    head = _SPLIT * hi
    head -= head - hi
    hi -= head
    low += (((w_head * head - top) + w_head * hi) + w * head) + w * hi
    whole = np.floor(top)
    top -= whole
    top += low
    carry = np.floor(top)
    top -= carry
    r = whole.astype(np.int64)
    r += carry.astype(np.int64)
    return r, top


def _nearest(r: np.ndarray, fraction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits of ``'%.17g'``: ``R`` nearest to ``D = r + fraction``, and where in doubt."""
    fraction -= 0.5
    return r + (fraction > 0), np.abs(fraction) < _DOUBT


def _shortest(a: np.ndarray, r: np.ndarray,
              fraction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits of ``repr``: the shortest ``R`` in the rounding interval, and where in doubt."""
    mantissa = np.frexp(a)[0]
    up_gap = (r + fraction) / (mantissa * 2.0**54)  # D / (2M)
    down_gap = np.where(mantissa == 0.5, 0.5 * up_gap, up_gap)
    digits, doubt = _nearest(r, fraction.copy())
    doubt |= a <= _TINY
    for unit in (10, 100):  # 16 digits, then 15, which win where they fit
        low = r % unit
        below = low + fraction  # the distance down to the multiple of unit at or below D
        above = unit - below
        down = below < down_gap
        up = above < up_gap
        doubt |= (np.abs(below - down_gap) < _DOUBT) | (np.abs(above - up_gap) < _DOUBT)
        both = down & up
        doubt |= both & (np.abs(below - 0.5 * unit) < _DOUBT)
        up &= ~both | (below > 0.5 * unit)
        np.copyto(digits, r - low + unit * up, where=down | up)
    return digits, doubt


@lru_cache(maxsize=2)
def _tables(shortest: bool) -> tuple[np.ndarray, ...]:
    """Lookup tables of little-endian words of byte slots (see :func:`_chunk`).

    By 4-digit group 0..9999: its ASCII digits and its trailing zeros.  By
    ``k + _K``: the digit the point precedes (0 for none), the least count of
    digits shown, the prefix ``0.`` to ``0.000`` after the sign, and the
    exponent ``e+XX`` after the last two digits, for ``'%.17g'`` or, where
    ``shortest``, for ``repr``.  By ``17 * kept + point``, for each of the
    three words of seven digit slots: the mask of the kept digits before the
    point, the mask of those after it, which move up a slot, and the point.
    """
    ten = np.arange(10)
    pair = ((ten[:, None] + 48) | (ten + 48) << 8).reshape(-1)
    quad = (pair[:, None] | pair << 16).reshape(-1)
    pair_zeros = ((ten == 0) * (1 + (ten[:, None] == 0))).reshape(-1)
    zeros = pair_zeros + (pair_zeros == 2) * pair_zeros[:, None]
    k = np.arange(-_K, _K)
    fixed = (k >= -4) & (k < 17 - shortest)
    point = np.where(fixed, np.where(k < 0, 0, k + 1), 1)
    least = point + (shortest & fixed & (k >= 0))  # repr's ".0" on an integral value
    prefix = np.zeros(k.size, np.int64)
    for lead in range(1, 5):
        prefix[k == -lead] = int.from_bytes(b"\0" + b"0." + b"0" * (lead - 1), "little")
    e = np.abs(k)
    exponent = (101 | np.where(k < 0, 45, 43) << 8 | np.where(e >= 100, e // 100 + 48, 0) << 16
                | (e // 10 % 10 + 48) << 24 | (e % 10 + 48) << 32) << 16
    exponent[fixed] = 0
    kept, at = np.arange(18)[:, None], np.arange(17)
    words = []
    for i in range(3):
        mask = (1 << 8 * np.clip(kept - 1 - 7 * i, 0, 7)) - 1
        q = at - 1 - 7 * i
        inside = (at > 0) & (q >= 0) & (q < 7)
        low = np.where(inside, (1 << 8 * np.clip(q, 0, 6)) - 1, -1)
        words += [mask & low, mask & ~low, np.broadcast_to(np.where(inside, 46 * (low + 1), 0),
                                                           (18, 17))]
    return tuple(np.ravel(table).astype(np.uint64)
                 for table in (quad, zeros, point, least, prefix, exponent, *words))


@lru_cache(maxsize=None)
def _tails(ends: tuple[str, ...]) -> np.ndarray:
    """Each column's slot words from the fourth on: empty up to their last slot, then its end."""
    width = -(-(7 + max(map(len, ends))) // 8) * 8
    text = b"".join((b"\0" * 7 + end.encode("ascii")).ljust(width, b"\0") for end in ends)
    return np.frombuffer(text, "<u8").reshape(len(ends), -1)


def _chunk(rows: np.ndarray, ends: tuple[str, ...], shortest: bool) -> str:
    """Text of a ``(b, c)`` float64 array, each value's text followed by its column's end.

    The text is ``repr(value)`` where ``shortest``, else ``'%.17g' % value``.
    """
    values = rows.reshape(-1)
    finite = np.isfinite(values)
    zero = values == 0
    a = np.abs(values)
    a[zero | ~finite] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    r, fraction = _scaled(a, k)
    off = np.flatnonzero((r < _LOW) | (r >= _HIGH))
    if off.size:
        k[off] += np.where(r[off] < _LOW, -1, 1)
        r[off], fraction[off] = _scaled(a[off], k[off])
    r, doubt = _shortest(a, r, fraction) if shortest else _nearest(r, fraction)
    doubt |= ~finite | (r < _LOW) | (r > _HIGH)
    del a, finite, fraction
    carry = r == _HIGH
    k += carry
    r[carry | doubt] = _LOW

    # Words of byte slots, a zero byte an empty slot: sign, prefix, d0, -;
    # d1..d7, -; d8..d14, -; d15, d16, exponent, then the end in the last
    # slot of the fourth word and the words after it.  The spare slot of a
    # digit word takes the digit that a point pushes up.
    quad, zeros, points, least, prefix, exponent, *masks = _tables(shortest)
    tails = _tails(ends)
    # In a bytearray, translate drops the empty slots with no bytes copy of
    # them all, so the heap keeps a chunk's pages for the next chunk.
    text = bytearray(values.size * (3 + tails.shape[1]) * 8)
    out = np.frombuffer(text, "<u8").reshape(values.size, -1)
    lead = r // _LOW
    r -= lead * _LOW
    lead[zero] = 0
    lead += 48
    out[:, 0] = prefix.take(k + _K) | np.signbit(values) * np.uint64(45) | lead.astype(
        np.uint64) << 48
    del lead
    lower = r % 10**8
    r //= 10**8
    groups = r // 10**4, r % 10**4, lower // 10**4, lower % 10**4
    del r, lower
    z0, z1, z2, z3 = (zeros.take(g) for g in groups)
    kept = 17 - (z3 + (z3 == 4) * (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))).astype(np.int64)
    del z0, z1, z2, z3
    np.maximum(kept, least.take(k + _K).astype(np.int64), out=kept)
    point = points.take(k + _K).astype(np.int64)
    index = 17 * kept + point * (point < kept)
    del kept, point
    q0, q1, q2, q3 = (quad.take(g) for g in groups)
    del groups
    for i, word in enumerate((q0 | (q1 & 0xFFFFFF) << 32, q1 >> 24 | q2 << 8 | (q3 & 0xFFFF) << 40,
                              q3 >> 16)):
        before, after, dot = (table.take(index) for table in masks[3 * i:3 * i + 3])
        out[:, i + 1] = (word & before) | (word & after) << 8 | dot
    del q0, q1, q2, q3, index, before, after, dot, word
    columns = out.reshape(*rows.shape, -1)
    columns[..., 3] |= tails[:, 0]
    columns[..., 4:] = tails[:, 1:]
    out[:, 3] |= exponent.take(k + _K)
    slots = out.view(np.uint8).reshape(values.size, -1)
    python = _repr if shortest else _printf
    for i in np.flatnonzero(doubt):
        exact = python(float(values[i])).encode()
        slots[i, :31] = 0
        slots[i, :len(exact)] = np.frombuffer(exact, np.uint8)
    return text.translate(None, b"\0").decode("ascii")


def _write_rows(stream, rows: range, columns, ends: tuple[str, ...], shortest: bool) -> None:
    """Write the ``rows``, each value's text followed by its column's end.

    ``columns(start, stop)`` returns the columns of the rows ``start:stop``,
    each a 1-D or 2-D array.  A row holds a sample's values of the columns in
    order, one per entry of a 2-D column, so ``ends`` has one entry per
    value.  The rows are split into one contiguous share per usable CPU, at
    most one per ``_SHARE_ROWS`` rows begun; each share walks chunks of
    ``_CHUNK // len(ends)`` rows, each asked of ``columns``, stacked once and
    formatted by :func:`_chunk`, so no share holds more than a chunk of
    them.  This process formats the first share into ``stream`` and a forked
    child each other share into a temporary file, copied into ``stream``
    after the child exits, so the bytes are those of one share.  A child's
    ``ValueError`` is raised here with its text, any other failure of a
    child as ``ChildProcessError``; every child is reaped before this
    returns or raises, the ones still running on an error after a ``SIGTERM``.
    """
    step = max(1, _CHUNK // len(ends))

    def write_share(out, starts: range) -> None:
        for start in starts:
            chunk = columns(start, min(start + step, starts.stop))
            out.write(_chunk(np.column_stack(chunk), ends, shortest))

    # Where os has sched_getaffinity (Linux) it has fork; elsewhere one share.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = max(1, min(cpus, -(-len(rows) // _SHARE_ROWS)))
    cuts = [rows.start + len(rows) * i // count for i in range(count + 1)]
    shares = [range(begin, end, step) for begin, end in zip(cuts, cuts[1:])]
    spools, pids = [], []  # a temporary file per forked share; the children not yet reaped
    try:
        for share in shares[1:]:
            spools.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            pid = os.fork()
            if pid == 0:  # leave by _exit alone: no flush of inherited buffers, no cleanup
                status = 1
                try:
                    write_share(spools[-1], share)
                    spools[-1].flush()
                    status = 0
                except ValueError as error:  # its text takes the place of the rows
                    spools[-1].seek(0)
                    spools[-1].write(str(error))
                    spools[-1].truncate()  # which flushes the text first
                    status = _REFUSED
                finally:
                    os._exit(status)
            pids.append(pid)
        write_share(stream, shares[0])
        for spool in spools:
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pid = pids.pop(0)
            spool.seek(0)
            if status == _REFUSED:
                raise ValueError(spool.read())
            if status:
                raise ChildProcessError(f"the trajectory writer process {pid} failed with "
                                        f"exit status {status}")
            shutil.copyfileobj(spool, stream)
    except BaseException:
        import signal  # here alone, on the error path: it costs a millisecond of import

        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        for pid in pids:
            os.waitpid(pid, 0)
        raise
    finally:
        for spool in spools:
            spool.close()
