"""trace.csv's codec in memory: its columns, the blockwise writer and the proven reader.

A row is t in %d and five floats in %.16e, comma-separated and ended by
'\n'.  blocks writes a trace's bytes and parse reads a stream that keeps
this grammar, TRACE_BLOCK rows at a time, both in numpy on one decimal core
(_sci_digits).  Each format is one _FORMATS row with one slow path each way
for what the core leaves unproven: the format itself writes the value, and
float() reads the field.  Files and errors are harness's.
"""

from __future__ import annotations

import functools
import os
import re
from collections.abc import Callable, Iterator
from itertools import groupby
from typing import BinaryIO, NamedTuple

import numpy as np

#: trace.csv columns in file order: header name, engine.Trace attribute, printf format
TRACE_COLUMNS = (
    ("t", "t", "%d"),
    ("e_t", "e", "%.16e"),
    ("a_t", "a", "%.16e"),
    ("alpha_t", "alpha", "%.16e"),
    ("delta_norm_sq", "delta_norm_sq", "%.16e"),
    ("eta_div", "eta_div", "%.16e"),
)
TRACE_HEADER = [name for name, _, _ in TRACE_COLUMNS]
_HEADER_LINE = (",".join(TRACE_HEADER) + "\n").encode()

#: trace.csv rows formatted or parsed per block; a block's work arrays take about 1 KB per row
TRACE_BLOCK = 1024

#: bytes per trace.csv value: its text and ',' with NULs around them
_CELL = 32
#: the |x| that _sci_digits converts itself: 10^(16-k) and the Dekker halves of |x| and 10^(16-k) stay normal
_SCI_RANGE = (1e-280, 1e280)
#: floor(log10|x|) over _SCI_RANGE
_DECADES = range(-281, 281)
#: 2^27 + 1, which splits a double into halves whose products are exact (Dekker)
_SPLIT = 134217729.0


def _words(texts: list[bytes], width: int) -> np.ndarray:
    """texts, each NUL-padded to width bytes (4 or 8), as one unsigned int per text."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), f"u{width}")


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The text words that _sci_cells and _int_cells look up, built on first use.

    quads[i], quads[10000 + i] and quads[20000 + i] are the four digits of
    i in 0..9999: with its leading zeros, with those as NULs (so 0 is four
    NULs), and as %d writes i.  minus is '-' and comma ','; head[10 * neg +
    d] is the sign, leading digit d and '.' of a %.16e text, right-aligned,
    and exp[k] its exponent and ','.
    """
    i, places = np.arange(10000, dtype=np.int16)[:, None], np.array([1000, 100, 10, 1], np.int16)
    digits = (i // places % 10 + ord("0")).astype(np.uint8)
    lead = i < places  # the places left of i's leading digit, and the units of 0
    quads = np.concatenate([digits, np.where(lead, 0, digits), np.where(lead & (places > 1), 0, digits)])
    return {
        "quads": quads.view(np.uint32).ravel(),
        "minus": _words([b"-"], 4)[0],
        "comma": _words([b","], 4)[0],
        "head": _words([(b"%s%d." % (sign, d)).rjust(4, b"\0") for sign in (b"", b"-") for d in range(10)], 4),
        "exp": _words([b"e%+03d," % k for k in _DECADES], 8),
    }


@functools.cache
def _pow10() -> np.ndarray:
    """10^(16-k) = hi + lo over k in _DECADES, built from Python ints on first use: _pow10()[:, i] is hi and lo
    at the _DECADES indices i, each the double nearest its exact ratio."""
    table = np.empty((2, len(_DECADES)))
    for j, k in enumerate(_DECADES):
        num, den = (10**(16 - k), 1) if k <= 16 else (1, 10**(k - 16))
        table[0, j] = h = num / den
        h_num, h_den = h.as_integer_ratio()
        table[1, j] = (num * h_den - h_num * den) / (den * h_den)
    table.flags.writeable = False  # every caller shares it
    return table


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v as two halves of 26 significant bits whose products with another split are exact (Dekker)."""
    c = v * _SPLIT
    v_hi = c - (c - v)
    return v_hi, v - v_hi


def _two_product(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = u * v rounded, and e, its exact error: u * v = p + e (Dekker, summed in his order)."""
    p = u * v
    (u_hi, u_lo), (v_hi, v_lo) = _split(u), _split(v)
    e = u_hi * v_hi - p
    e += u_hi * v_lo
    e += u_lo * v_hi
    e += u_lo * v_lo
    return p, e


def _decade(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) of the positive doubles a, a guess that may miss by one next to a power of ten."""
    return np.floor(np.log10(a)).astype(np.int64)


def _sci_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The %.16e text of the doubles x as N and the _DECADES index of k, and which of them are exact.

    A value is N * 10^(k-16) with N the integer in [1e16, 1e17) nearest
    |x| * 10^(16-k), k = floor(log10|x|).  That product is p + e: p, the
    rounded product of |x| and the table's hi, is an integer above 2^53, and
    e is the Dekker product's exact error plus |x| * lo.  Condition, not
    checked: e is within 1e-14 of the exact remainder (|e| < 20, and the
    three roundings that make it each err by under 2e-15), so floor(e) and
    e - floor(e) round N as Python does unless that fraction lies within
    1e-6 of a tie.  Not exact: non-finite values, |x| outside _SCI_RANGE,
    a fraction near a tie, and a decade guess that missed, which shows as N
    below 1e16 before rounding or at 1e17 after it.  Zeros, and the values
    that are not exact, are N = 0 at k = 0.
    """
    a = np.abs(x)
    zero = a == 0
    exact = (a >= _SCI_RANGE[0]) & (a <= _SCI_RANGE[1])
    a[~exact] = 1.0
    i = _decade(a) - _DECADES.start
    hi, lo = _pow10()[:, i]
    p, e = _two_product(a, hi)
    e += a * lo
    whole = np.floor(e)
    e -= whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    exact &= (n >= 10**16) & (np.abs(e - 0.5) >= 1e-6)
    n += e > 0.5
    exact &= n < 10**17
    blank = zero | ~exact
    n[blank] = 0
    i[blank] = -_DECADES.start
    return n, i, exact | zero


def _sci_value(n: np.ndarray, i: np.ndarray) -> np.ndarray:
    """N * 10^(k-16) as doubles, N < 1e17 and k at the _DECADES indices i, within 1e-15 ulp before the last rounding.

    It is the quotient of N by 10^(16-k) = hi + lo, corrected by the
    quotient's remainder, which the Dekker product's error gives exactly.
    """
    hi, lo = _pow10()[:, i]
    n_hi = n.astype(np.float64)
    n_lo = (n - n_hi.astype(np.int64)).astype(np.float64)
    q = n_hi / hi
    p, e = _two_product(q, hi)  # n_hi - p is exact: p is within a factor 2 of n_hi
    return q + ((n_hi - p) - e + n_lo - q * lo) / hi


def _sci_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """%.16e cells of the doubles x into out; returns which are written, the format itself writing the rest.

    The digits are _sci_digits', and a value it leaves inexact is left
    unwritten.  A cell's words: 1 the sign, leading digit and '.',
    right-aligned; 2-5 the other 16 digits; 6-7 the exponent and ','.
    """
    tab, (n, i, written) = _tables(), _sci_digits(x)
    quads, lead = tab["quads"], n // 10**16
    n -= lead * 10**16
    mid = n // 10**8
    for j, half in ((2, mid), (4, n - mid * 10**8)):  # the 16 digits after the lead, four at a time
        top = half // 10**4
        out[..., j] = quads[top]
        out[..., j + 1] = quads[half - top * 10**4]
    out[..., 1] = tab["head"][lead + 10 * np.signbit(x)]
    out[..., 6:].view(np.uint64)[..., 0] = tab["exp"][i]
    return written


def _int_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """%d cells of the integers x into out, whose words are NULs; returns which are written: all but
    -2^63, whose |x| int64 lacks.

    A cell's words: 0 the sign; 1-5 up to 20 digits, right-aligned; 6 ','.
    """
    tab = _tables()
    x = x.astype(np.int64, copy=False)
    a = np.abs(x)
    written = a >= 0
    a[~written] = 0
    out[..., 0] = (x < 0) * tab["minus"]
    for j in range(5, 0, -1):  # base-10^4 digits, units first; those left of the leading one are NULs
        higher = a // 10**4
        out[..., j] = tab["quads"][a - higher * 10**4 + (higher == 0) * (20000 if j == 5 else 10000)]
        if not np.count_nonzero(higher):  # the digits left are NULs, as out holds them already
            break
        a = higher
    out[..., 6] = tab["comma"]
    return written


def _words_at(blk: np.ndarray, at: np.ndarray, count: int) -> np.ndarray:
    """The count little-endian uint64 words of the uint8 blk from each offset in at, as count contiguous rows."""
    windows = np.lib.stride_tricks.as_strided(blk, (blk.size - 8 * count + 1, 8 * count), (1, 1), writeable=False)
    return np.ascontiguousarray(windows[at].view("<u8").T)


#: eight ASCII '0's, as one word
_ZEROS = 0x3030303030303030


def _digit_faults(d: np.ndarray) -> np.ndarray:
    """Nonzero where a word of d, ASCII text minus _ZEROS, holds a byte that was no digit.

    Such a byte is above 9, and so gets its high bit with 0x76 added, or
    had it or took it from a borrow; a byte's carry or borrow only reaches
    the bytes above a faulty byte.
    """
    return (d | (d + 0x7676767676767676)) & 0x8080808080808080


def _eight_digits(d: np.ndarray) -> np.ndarray:
    """The int64 that each uint64 word of eight digits (ASCII text minus _ZEROS) spells, first digit in the low byte."""
    d = (d * 10 + (d >> 8)) & 0x00FF00FF00FF00FF  # digit pairs
    d = (d * 100 + (d >> 16)) & 0x0000FFFF0000FFFF  # then fours
    return ((d * 10000 + (d >> 32)) & 0xFFFFFFFF).astype(np.int64)


#: 'e+' and 'e-' as the low two bytes of a little-endian word
_E_PLUS, _E_MINUS = (int.from_bytes(b, "little") for b in (b"e+", b"e-"))
#: at index c, the mask of a word's low c bytes
_BYTES = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)


def _sci_fields(blk: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fields blk[start:end] as doubles, which are proven, and which are %.16e texts -?d.d{16}e[+-]d{2,3}.

    A text's double is _sci_value of its digits N and its k.  It is proven,
    and so the double nearest the text, if _sci_digits, the writer's own
    arithmetic, gives that double the same N and k and calls them exact:
    the text then is the 17-digit %.16e text of the double, and a 17-digit
    text lies within 0.91 of half an ulp from its double, farther from a
    rounding tie than _sci_value can err.  The rest are proven by none:
    fields that are no such text, k outside _DECADES, a text that is not
    the writer's text of a double and one that _sci_digits leaves inexact.
    """
    neg = blk[start] == ord("-")
    m = start + neg  # the leading digit
    words = _words_at(blk, m - 6, 4)  # bytes 6-7 the leading digit and '.', 8-23 the others, 24- 'e', sign, exponent
    lead = (words[0] >> 48) - int.from_bytes(b"0.", "little")
    digits = words[1:3] - _ZEROS
    tag = words[3] & 0xFFFF
    exp = (words[3] >> 16) - _ZEROS
    width = end - m - 20  # of the exponent
    text = ((lead < 10) & ((tag == _E_PLUS) | (tag == _E_MINUS)) & ((width == 2) | (width == 3))
            & ((_digit_faults(digits[0]) | _digit_faults(digits[1])
                | _digit_faults(exp) & np.where(width == 3, np.uint64(0xFFFFFF), np.uint64(0xFFFF))) == 0))
    k = (exp & 0xFF) * 10 + (exp >> 8 & 0xFF)
    k = np.where(width == 3, k * 10 + (exp >> 16 & 0xFF), k).astype(np.int64)
    np.negative(k, out=k, where=tag == _E_MINUS)
    i = k - _DECADES.start
    blank = ~text | (i < 0) | (i >= len(_DECADES))  # N = 0 at k = 0
    eights = _eight_digits(digits)
    n = lead.astype(np.int64) * 10**16 + eights[0] * 10**8 + eights[1]
    n[blank] = 0
    i[blank] = -_DECADES.start
    del words, lead, digits, tag, exp, width, k, eights, m  # freed before the proof's arrays: a lower peak heap
    x = _sci_value(n, i)
    n_x, i_x, exact = _sci_digits(x)
    np.negative(x, out=x, where=neg)
    return x, ~blank & exact & (n_x == n) & (i_x == i), text


def _int_fields(blk: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fields blk[start:end] as doubles, which are proven, and which are %d texts -?\\d{1,16}: the proven ones."""
    neg = blk[start] == ord("-")
    count = end - start - neg
    words = _words_at(blk, end - 16, 2)  # the 16 bytes before the field's end
    left = _BYTES[8 - np.minimum(np.maximum([count - 8, count], 0), 8)]  # the bytes left of the first digit, as '0's
    digits = (words & ~left | _ZEROS & left) - _ZEROS
    short = (count > 0) & (count <= 16) & ((_digit_faults(digits[0]) | _digit_faults(digits[1])) == 0)
    eights = _eight_digits(digits)
    x = (eights[0] * 10**8 + eights[1]).astype(np.float64)
    np.negative(x, out=x, where=neg)
    return x, short, short


class _Format(NamedTuple):
    """A TRACE_COLUMNS format: cells(values, uint32 words of their zeroed cells) -> which it wrote, the format
    writing the rest; fields(uint8 buffer, starts, ends) -> (values, which are proven, which are the format's
    text); other, the format's other texts that float() parses as np.loadtxt does."""
    cells: Callable
    fields: Callable
    other: re.Pattern


_FORMATS = {
    "%d": _Format(_int_cells, _int_fields, re.compile(rb"-?\d{17,}")),
    "%.16e": _Format(_sci_cells, _sci_fields, re.compile(rb"nan|-?inf")),
}
#: TRACE_COLUMNS in runs of one format: (format, the run's columns)
_RUNS = [(fmt, list(cols)) for fmt, cols in groupby(TRACE_COLUMNS, key=lambda col: col[2])]


def blocks(trace) -> Iterator[bytes]:
    """The bytes of trace.csv of trace (an engine.Trace): the header, then its rows, TRACE_BLOCK at a time.

    A block is one uint8 array of _CELL bytes per value, NULs dropped.  A
    cell holds the value's text and ',', with the text in one piece so that
    the NULs to drop are few runs.  Each run of columns with one format
    fills its cells in one call of the format's cells writer, the format
    itself writes each value that the call leaves unwritten, and a row's
    last ',' becomes '\\n'.
    """
    runs = [(fmt, [getattr(trace, attr) for _, attr, _ in cols]) for fmt, cols in _RUNS]
    yield _HEADER_LINE
    for lo in range(0, len(trace), TRACE_BLOCK):
        n = min(TRACE_BLOCK, len(trace) - lo)
        rows = np.zeros((n, len(TRACE_COLUMNS), _CELL), np.uint8)
        words = rows.view(np.uint32).swapaxes(0, 1)  # column, row, word
        at = 0
        for fmt, cols in runs:
            x = np.array([c[lo:lo + n] for c in cols])
            written = _FORMATS[fmt].cells(x, words[at:at + len(cols)])
            if not written.all():
                for c, r in zip(*np.nonzero(~written)):
                    text = (fmt % x[c, r].item() + ",").encode()
                    rows[r, at + c] = 0
                    rows[r, at + c, :len(text)] = list(text)
            at += len(cols)
        end = rows[:, -1]
        end[end == ord(",")] = ord("\n")
        yield rows[rows != 0].tobytes()


#: NULs before parse's window (and _CELL after it), so that the words _words_at takes of a field lie in its buffer
_PAD = 16


def _parse_block(buf: np.ndarray, size: int, rows: int) -> np.ndarray | None:
    """The values of the rows in buf[_PAD:_PAD + size], one row per column; None if they break the writer's grammar.

    A row is its fields in the TRACE_COLUMNS formats, joined by ',' and
    ended by '\\n'.  Each run of columns with one format is read in one call
    of the format's fields reader.  float() parses each field that the call
    leaves unproven, if it is the format's text or one of its other
    spellings: on these texts float() rounds as correctly as np.loadtxt.
    Any other field breaks the grammar.
    """
    text = buf[_PAD:_PAD + size]
    ends = np.flatnonzero((text == ord(",")) | (text == ord("\n"))) + _PAD
    cols = len(TRACE_COLUMNS)
    if ends.size != rows * cols or not (buf[ends[cols - 1::cols]] == ord("\n")).all():
        return None  # the text holds rows lines, so the other ends are ','
    starts = np.concatenate([[_PAD], ends[:-1] + 1]).reshape(rows, cols).T
    ends = ends.reshape(rows, cols).T
    out = np.empty((cols, rows))
    at = 0
    for fmt, run in _RUNS:
        start, end = starts[at:at + len(run)].ravel(), ends[at:at + len(run)].ravel()
        x, proven, its_text = _FORMATS[fmt].fields(buf, start, end)
        for j in np.flatnonzero(~proven).tolist():
            field = buf[start[j]:end[j]].tobytes()
            if not (its_text[j] or _FORMATS[fmt].other.fullmatch(field)):
                return None
            x[j] = float(field)
        out[at:at + len(run)] = x.reshape(len(run), rows)
        at += len(run)
    return out


def parse(fh: BinaryIO) -> np.ndarray | None:
    """The values of a binary trace.csv stream, one row per column, if it keeps the writer's grammar line for line.

    That is the header line, then one or more rows, each ended by '\\n';
    None for any other stream.  The stream is read into one NUL-padded
    window, as long as the file or as TRACE_BLOCK rows of the writer (at
    most _CELL bytes a value), whichever is shorter; the window's first
    TRACE_BLOCK rows are parsed, and the bytes after them move to its start.
    """
    if fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
        return None
    room = min(TRACE_BLOCK * len(TRACE_COLUMNS) * _CELL, os.fstat(fh.fileno()).st_size)
    buf = np.zeros(_PAD + room + _CELL, np.uint8)
    window, parsed, held = buf[_PAD:-_CELL], [], 0
    while True:
        held += fh.readinto(window[held:])
        lines = np.flatnonzero(window[:held] == ord("\n"))[:TRACE_BLOCK]
        if not lines.size:  # the end, or a line that the window cannot hold
            return np.concatenate(parsed, axis=1) if parsed and not held else None
        size = int(lines[-1]) + 1
        if (block := _parse_block(buf, size, lines.size)) is None:
            return None
        parsed.append(block)
        window[:held - size] = window[size:held]
        held -= size
