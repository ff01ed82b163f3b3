"""File-level harness: runs into directories, sweeps, audits, rate fits.

Every command works on explicit paths; no environment variables are read.
A run directory contains config.json (canonical form of the input), a
trace.csv with a fixed header, states.npz when retention is on,
summary.json, and manifest.json.  Trace floats are written with 17
significant digits so a re-run with the same config and seed reproduces the
file byte for byte.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
import warnings
import zipfile
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Iterator
from dataclasses import asdict
from itertools import groupby, product
from pathlib import Path

import numpy as np

from . import __version__, analysis, config as cfgmod, engine
from .config import ConfigError
from .engine import EngineError
from .geometry import SquaredEuclidean

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
#: 10^(16-k) = hi + lo over k in _DECADES, each the double nearest its exact ratio; nan until _pow10 first needs it
_POW10 = np.full((2, len(_DECADES)), np.nan)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NEEDS_STATES = 3

#: what a run writes into its directory, manifest.json listing the first four; a rerun removes them first
RUN_FILES = ("config.json", "trace.csv", "states.npz", "summary.json", "manifest.json", "audit.json",
             "state_dump.json")


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


def _pow10(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi and lo of 10^(16-k) at the _DECADES indices i, building the decades not built before from Python ints."""
    hi = _POW10[0, i]
    if np.isnan(hi).any():  # a file's values span a few dozen of the 562 decades
        for j in set(i[np.isnan(hi)].tolist()):
            k = _DECADES[j]
            num, den = (10**(16 - k), 1) if k <= 16 else (1, 10**(k - 16))
            _POW10[0, j] = h = num / den
            h_num, h_den = h.as_integer_ratio()
            _POW10[1, j] = (num * h_den - h_num * den) / (den * h_den)
        hi = _POW10[0, i]
    return hi, _POW10[1, i]


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
    hi, lo = _pow10(i)
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


def _sci_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """%.16e cells of the doubles x into out; returns which are written, the format itself writing the rest.

    The digits are _sci_digits', and a value it leaves inexact is left
    unwritten.  A cell's words: 1 the sign, leading digit and '.',
    right-aligned; 2-5 the other 16 digits; 6-7 the exponent and ','.
    """
    tab = _tables()
    n, i, written = _sci_digits(x)
    lead = n // 10**16
    n -= lead * 10**16
    quads = tab["quads"]
    mid = n // 10**8
    for j, half in ((2, mid), (4, n - mid * 10**8)):  # the 16 digits after the lead, four at a time
        top = half // 10**4
        out[..., j] = quads[top]
        out[..., j + 1] = quads[half - top * 10**4]
    out[..., 1] = tab["head"][lead + 10 * np.signbit(x)]
    out[..., 6:].view(np.uint64)[..., 0] = tab["exp"][i]
    return written


def _int_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """%d cells of the integers x into out; returns which are written: all but -2^63, whose |x| int64 lacks.

    A cell's words: 0 the sign; 1-5 up to 20 digits, right-aligned; 6 ','.
    """
    tab = _tables()
    quads = tab["quads"]
    x = x.astype(np.int64, copy=False)
    a = np.abs(x)
    written = a >= 0
    a[~written] = 0
    out[..., 0] = (x < 0) * tab["minus"]
    for j in range(5, 0, -1):  # base-10^4 digits, units first; those left of the leading one are NULs
        higher = a // 10**4
        out[..., j] = quads[a - higher * 10**4 + (higher == 0) * (20000 if j == 5 else 10000)]
        a = higher
    out[..., 6] = tab["comma"]
    return written


#: the cells of each TRACE_COLUMNS format: writer(values, uint32 words of their zeroed cells) -> which it wrote
_CELL_WRITERS = {"%d": _int_cells, "%.16e": _sci_cells}
#: TRACE_COLUMNS in runs of one format: (format, the run's columns)
_RUNS = [(fmt, list(cols)) for fmt, cols in groupby(TRACE_COLUMNS, key=lambda col: col[2])]


def _csv_blocks(trace: engine.Trace) -> Iterator[bytes]:
    """The bytes of trace.csv of trace: the header, then its rows in the TRACE_COLUMNS formats, TRACE_BLOCK at a time.

    A block is one uint8 array of _CELL bytes per value, NULs dropped.  A
    cell holds the value's text and ',', with the text in one piece so that
    the NULs to drop are few runs.  Each run of columns with one format
    fills its cells in one call of the format's _CELL_WRITERS entry, the
    format itself writes each value that the call leaves unwritten, and a
    row's last ',' becomes '\\n'.
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
            written = _CELL_WRITERS[fmt](x, words[at:at + len(cols)])
            if not written.all():
                for c, r in zip(*np.nonzero(~written)):
                    text = (fmt % x[c, r].item() + ",").encode()
                    rows[r, at + c] = 0
                    rows[r, at + c, :len(text)] = list(text)
            at += len(cols)
        end = rows[:, -1]
        end[end == ord(",")] = ord("\n")
        yield rows[rows != 0].tobytes()


def write_trace_csv(path: Path, trace: engine.Trace) -> dict:
    """Write trace.csv of trace block by block; returns its manifest entry."""
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") as fh:
        for data in _csv_blocks(trace):
            fh.write(data)
            digest.update(data)
            size += len(data)
    return {"bytes": size, "sha256": digest.hexdigest()}


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


def _sci_texts(blk: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The %.16e texts -?d.d{16}e[+-]d{2,3} blk[start:end] as N, the _DECADES index of k, the sign, and which are such.

    A field that is no such text must be nan, inf or -inf, which gets N = 0
    at k = 0, as does a k outside _DECADES; None if one is none of these.
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
    if not text.all():
        for j in np.flatnonzero(~text).tolist():
            if blk[start[j]:end[j]].tobytes() not in (b"nan", b"inf", b"-inf"):
                return None
    k = (exp & 0xFF) * 10 + (exp >> 8 & 0xFF)
    k = np.where(width == 3, k * 10 + (exp >> 16 & 0xFF), k).astype(np.int64)
    np.negative(k, out=k, where=tag == _E_MINUS)
    i = k - _DECADES.start
    text &= (i >= 0) & (i < len(_DECADES))
    eights = _eight_digits(digits)
    n = lead.astype(np.int64) * 10**16 + eights[0] * 10**8 + eights[1]
    n[~text] = 0
    i[~text] = -_DECADES.start
    return n, i, neg, text


def _sci_value(n: np.ndarray, i: np.ndarray) -> np.ndarray:
    """N * 10^(k-16) as doubles, N < 1e17 and k at the _DECADES indices i, within 1e-15 ulp before the last rounding.

    It is the quotient of N by 10^(16-k) = hi + lo, corrected by the
    quotient's remainder, which the Dekker product's error gives exactly.
    """
    hi, lo = _pow10(i)
    n_hi = n.astype(np.float64)
    n_lo = (n - n_hi.astype(np.int64)).astype(np.float64)
    q = n_hi / hi
    p, e = _two_product(q, hi)  # n_hi - p is exact: p is within a factor 2 of n_hi
    return q + ((n_hi - p) - e + n_lo - q * lo) / hi


def _sci_fields(blk: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The %.16e fields blk[start:end] as doubles, and which are proven; None if one is not a %.16e text.

    The double of a text is _sci_value of its N and k.  It is proven, and
    so the double nearest the text, if _sci_digits, the writer's own
    arithmetic, gives that double the same N and k and calls them exact:
    the text then is the 17-digit %.16e text of the double, and a 17-digit
    text lies within 0.91 of half an ulp from its double, farther from a
    rounding tie than _sci_value can err.  The rest are proven by none:
    nan, inf and -inf, k outside _DECADES, a text that is not the writer's
    text of a double and one that _sci_digits leaves inexact.
    """
    texts = _sci_texts(blk, start, end)
    if texts is None:
        return None
    n, i, neg, text = texts
    x = _sci_value(n, i)
    n_x, i_x, exact = _sci_digits(x)
    np.negative(x, out=x, where=neg)
    return x, text & exact & (n_x == n) & (i_x == i)


def _int_fields(blk: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The %d fields blk[start:end] as doubles, and which are proven; None if one is not a %d text (-?\\d+).

    A text of up to 16 digits is proven: its int64 converts to the double
    nearest it.  Longer ones are proven by none.
    """
    neg = blk[start] == ord("-")
    count = end - start - neg
    words = _words_at(blk, end - 16, 2)  # the 16 bytes before the field's end
    left = _BYTES[8 - np.minimum(np.maximum([count - 8, count], 0), 8)]  # the bytes left of the first digit, as '0's
    digits = (words & ~left | _ZEROS & left) - _ZEROS
    short = (count > 0) & (count <= 16) & ((_digit_faults(digits[0]) | _digit_faults(digits[1])) == 0)
    if not short.all():
        for j in np.flatnonzero(~short).tolist():
            text = blk[start[j] + neg[j]:end[j]].tobytes()
            if not (len(text) > 16 and text.isdigit()):
                return None
    eights = _eight_digits(digits)
    x = (eights[0] * 10**8 + eights[1]).astype(np.float64)
    np.negative(x, out=x, where=neg)
    return x, short


#: the fields of each TRACE_COLUMNS format: reader(uint8 block, field starts, field ends) -> (values, proven) or None
_FIELD_READERS = {"%d": _int_fields, "%.16e": _sci_fields}
#: NULs before _parse_trace's window (and _CELL after it), so that the words _words_at takes of a field lie in its buffer
_PAD = 16


def _parse_block(buf: np.ndarray, size: int, rows: int) -> np.ndarray | None:
    """The values of the rows in buf[_PAD:_PAD + size], one row per column; None if they break the writer's grammar.

    A row is its fields in the TRACE_COLUMNS formats, joined by ',' and
    ended by '\\n'.  Each run of columns with one format is parsed in one
    call of the format's _FIELD_READERS entry, and float() parses each
    field the call leaves unproven: on a text the call took for its
    format's, float() rounds as correctly as np.loadtxt.
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
        fields = _FIELD_READERS[fmt](buf, start, end)
        if fields is None:
            return None
        x, proven = fields
        if not proven.all():
            for j in np.flatnonzero(~proven).tolist():
                x[j] = float(buf[start[j]:end[j]].tobytes())
        out[at:at + len(run)] = x.reshape(len(run), rows)
        at += len(run)
    return out


def _parse_trace(fh: io.BufferedIOBase) -> np.ndarray | None:
    """The values of a binary trace.csv stream, one row per column, if it keeps the writer's grammar line for line.

    That is _HEADER_LINE, then one or more rows, each ended by '\\n'; None
    for any other stream.  The stream is read into one NUL-padded window,
    as long as the file or as TRACE_BLOCK rows of the writer (at most _CELL
    bytes a value), whichever is shorter; the window's first TRACE_BLOCK
    rows are parsed, and the bytes after them move to its start.
    """
    if fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
        return None
    room = min(TRACE_BLOCK * len(TRACE_COLUMNS) * _CELL, os.fstat(fh.fileno()).st_size)
    buf = np.zeros(_PAD + room + _CELL, np.uint8)
    window, blocks, held = buf[_PAD:-_CELL], [], 0
    while True:
        held += fh.readinto(window[held:])
        lines = np.flatnonzero(window[:held] == ord("\n"))[:TRACE_BLOCK]
        if not lines.size:  # the end, or a line that the window cannot hold
            return np.concatenate(blocks, axis=1) if blocks and not held else None
        size = int(lines[-1]) + 1
        block = _parse_block(buf, size, lines.size)
        if block is None:
            return None
        blocks.append(block)
        window[:held - size] = window[size:held]
        held -= size


def _loadtxt_trace(path: Path) -> np.ndarray:
    """The values of any trace.csv that np.loadtxt reads, one row per column; a file it cannot read is a ConfigError."""
    with open(path, errors="replace") as fh:  # bytes that are no text fail below as fields that are no numbers
        header = fh.readline().rstrip("\n").split(",")
        if header != TRACE_HEADER:
            raise ConfigError(f"{path} has header {header}, expected {TRACE_HEADER}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: rejected below
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:  # a field that is no number, or a row whose field count differs
            raise ConfigError(f"{path} is not a valid trace: {exc}") from exc
    if rows.shape[0] == 0:
        raise ConfigError(f"{path} has a header but no rows")
    if rows.shape[1] != len(TRACE_COLUMNS):
        raise ConfigError(f"{path} has {rows.shape[1]} fields per row, expected {len(TRACE_COLUMNS)}")
    # contiguous copies: a BLAS dot product over a strided column can round differently
    return rows.T.copy()


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    """trace.csv columns by header name, with np.loadtxt's dtypes and bits; any malformed file is a ConfigError.

    A file in the writer's grammar is parsed from its bytes (_parse_trace);
    np.loadtxt reads any other, and names the path in its errors.
    """
    with open(path, "rb") as fh:
        values = _parse_trace(fh)
    cols = dict(zip(TRACE_HEADER, _loadtxt_trace(path) if values is None else values))
    t = cols["t"]
    bad = np.flatnonzero(~((np.floor(t) == t) & (np.abs(t) < 2.0**63)))  # nan, inf, fractions, past int64
    if bad.size:
        raise ConfigError(f"{path} line {bad[0] + 2} has t = {float(t[bad[0]])!r}, expected an integer")
    cols["t"] = t.astype(int)
    return cols


def load_run(run_dir: Path, cfg: cfgmod.RunConfig) -> engine.Trace:
    """The checked Trace that a run directory of cfg records.

    It reads trace.csv, states.npz if kept, and the start-up facts in
    summary.json.  Any fault is a ConfigError naming its file, checked in
    this order: trace.csv; summary.json being a JSON object in UTF-8;
    states.npz as an archive, then T+1 states on cfg's domain and T finite
    etas, all of its dim; then summary.json's config_digest (cfg's), s_star
    (on the domain), gamma_hat (a finite number) and warnings (a list of
    strings).
    """
    run_dir, g = Path(run_dir), cfg.geometry
    summary_path, states_path = run_dir / "summary.json", run_dir / "states.npz"
    cols = read_trace_csv(run_dir / "trace.csv")
    trace = engine.Trace(**{attr: cols[name] for name, attr, _ in TRACE_COLUMNS})
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also bytes that are no UTF-8
        raise ConfigError(f"{summary_path} is not JSON: {exc}") from exc
    if not isinstance(summary, dict):
        raise ConfigError(f"{summary_path} is not a JSON object")
    if states_path.exists():
        try:
            with np.load(states_path) as npz:
                trace.states, trace.etas = npz["states"], npz["etas"]
        except (KeyError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{states_path} is not a states archive: {exc}") from exc
        want = (trace.iterations + 1, g.dim), (trace.iterations, g.dim)
        try:
            if (trace.states.shape, trace.etas.shape) != want:
                raise ValueError(f"states of shape {trace.states.shape} and etas of shape {trace.etas.shape}, "
                                 f"expected {want[0]} and {want[1]}")
            g.check_point(trace.states, "states")
            SquaredEuclidean(g.dim).check_point(trace.etas, "etas")  # any finite rows of R^dim
        except ValueError as exc:  # also an array that holds no numbers
            raise ConfigError(f"{states_path}: {exc}") from exc
    digest, gamma_hat = summary.get("config_digest"), summary.get("gamma_hat")
    warns = summary.get("warnings", [])
    try:
        if digest != cfg.digest:
            raise ValueError(f"config_digest {digest!r} is not the config's digest {cfg.digest!r}")
        trace.s_star = g.check_point(summary.get("s_star"), "s_star")
        if isinstance(gamma_hat, bool) or not isinstance(gamma_hat, (int, float)) or not math.isfinite(gamma_hat):
            raise ValueError(f"gamma_hat must be a finite number, got {gamma_hat!r}")
        if not isinstance(warns, list) or not all(isinstance(w, str) for w in warns):
            raise ValueError(f"warnings must be a list of strings, got {warns!r}")
    except (TypeError, ValueError, OverflowError) as exc:  # also non-numbers in s_star, or a huge int
        raise ConfigError(f"{summary_path}: {exc}") from exc
    trace.gamma_hat, trace.warnings = float(gamma_hat), warns
    return trace


def write_json(path: Path, obj: dict) -> dict:
    """obj as strict JSON, and its manifest entry: a non-finite number raises ValueError, as no JSON reader takes one."""
    return _write(path, (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _entry(data: bytes) -> dict:
    """The manifest entry of a file that holds data."""
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _write(path: Path, data: bytes) -> dict:
    """Write data to path; returns its manifest entry, hashed from data."""
    path.write_bytes(data)
    return _entry(data)


class Loop:
    """A loop that the runs of one loop_key share: its Trace from engine.loops, without start-up facts.

    csv, the bytes of its trace.csv, and entry, their manifest entry, are
    made once, by the first run that writes them.  The Trace's arrays are
    read-only, as every run of the key reads them.
    """

    def __init__(self, trace: engine.Trace):
        for arr in vars(trace).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        self.trace = trace

    @functools.cached_property
    def csv(self) -> bytes:
        return b"".join(_csv_blocks(self.trace))

    @functools.cached_property
    def entry(self) -> dict:
        return _entry(self.csv)


@engine.QUIET
def summarize(trace: engine.Trace, cfg: cfgmod.RunConfig) -> dict:
    """Post-run metrics: rate fit, admissible beta, iterations to each eps; a_max, beta_max or M may be null."""
    bc = analysis.measure_constants(trace, cfg)
    beta_max, _ = analysis.audit_recursion(trace, bc)
    summary = {
        "config_digest": cfg.digest,
        "seed": cfg.seed,
        "gamma_hat": trace.gamma_hat,
        "s_star": trace.s_star.tolist(),
        "e0": float(trace.e[0]),
        "e_final": float(trace.e[-1]),
        "a_max": analysis.json_number(trace.a.max()),
        "beta_max": analysis.json_number(beta_max),
        "M": analysis.json_number(bc.M),
        "warnings": list(trace.warnings),
        "slope": None,
        "r2": None,
        "rate_window": None,
        "rate_truncated": None,
    }
    try:
        fit = analysis.fit_rate(trace, cfg.rate_window)
        summary.update(
            slope=fit.slope, r2=fit.r2, rate_window=[fit.t_lo, fit.t_hi],
            rate_truncated=fit.truncated,
        )
    except ValueError:
        pass  # short or degenerate run; slope stays null
    if cfg.perturbation.is_zero:
        passages = engine._passages(cfg, trace.s_star, trace.e, trace.final_state, cfg.eps_list)
        summary["iterations_to_eps"] = [
            {"eps": eps, "t": None if t == engine.CENSORED else t,
             "censored": t == engine.CENSORED}
            for eps, t in zip(cfg.eps_list, passages)
        ]
    else:
        summary["iterations_to_eps"] = [
            {"eps": eps, "t": None, "censored": False, "note": "noisy run; undefined"}
            for eps in cfg.eps_list
        ]
    return summary


def run_to_dir(cfg: cfgmod.RunConfig, out_dir: Path, loop: Loop | None = None) -> dict:
    """Run cfg and write one run directory; returns the summary dict.

    loop, the shared loop of cfg's loop_key, stands in for cfg's own: the
    run then makes only its start-up and its summary, and writes the loop's
    trace.csv bytes.  manifest.json hashes each file from the bytes written.
    """
    started = _utcnow()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True)
    except FileExistsError:  # an earlier run's files must not pass for this run's
        for name in RUN_FILES:
            (out_dir / name).unlink(missing_ok=True)
    trace = engine.run(cfg) if loop is None else engine.with_start(cfg, loop.trace)

    files = {"config.json": _write(out_dir / "config.json", (cfgmod.canonical_json(cfg.raw) + "\n").encode())}
    if loop is None:
        files["trace.csv"] = write_trace_csv(out_dir / "trace.csv", trace)
    else:
        (out_dir / "trace.csv").write_bytes(loop.csv)
        files["trace.csv"] = loop.entry
    if trace.states is not None:
        npz = io.BytesIO()
        np.savez_compressed(npz, states=trace.states, etas=trace.etas)
        files["states.npz"] = _write(out_dir / "states.npz", npz.getvalue())
    summary = summarize(trace, cfg)
    files["summary.json"] = write_json(out_dir / "summary.json", summary)
    write_json(out_dir / "manifest.json", {
        "config_digest": cfg.digest, "tool_version": __version__,
        "started_utc": started, "finished_utc": _utcnow(), "files": files,
    })
    return summary


def cmd_run(config_path: str, out_dir: str, seed: int | None = None,
            overrides: list[str] | None = None) -> int:
    """Execute one run; exit 0 on success, 2 on config errors, 1 on run failures."""
    try:
        raw = cfgmod.load_config_file(config_path)
        if overrides:
            raw = cfgmod.apply_overrides(raw, list(overrides))
        if seed is not None:
            raw["seed"] = int(seed)
        summary = run_to_dir(cfgmod.from_dict(raw), Path(out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config is a ConfigError, so this is the output
        print(f"run: cannot write run directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineError as exc:
        dump = Path(out_dir) / "state_dump.json"  # run_to_dir made the directory before the run
        state = [analysis.json_number(x) for x in exc.state.tolist()]
        write_json(dump, {"error": str(exc), "t": exc.t, "state": state})
        print(f"run failed: {exc} (state dumped to {dump})", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps({
        "digest": summary["config_digest"], "e_final": summary["e_final"],
        "slope": summary["slope"], "warnings": summary["warnings"],
    }, allow_nan=False))
    return EXIT_OK


def expand_sweep(raw: dict) -> list[tuple[dict, dict]]:
    """Cartesian expansion of the sweep block into (axis values, point config)."""
    sweep = raw.get("sweep")
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("sweep command needs a non-empty sweep block of axis lists")
    axes = sorted(sweep)
    for axis in axes:
        if not isinstance(sweep[axis], list) or not sweep[axis]:
            raise ConfigError(f"sweep.{axis} must be a non-empty list of values")
    base = {k: v for k, v in raw.items() if k != "sweep"}
    points = []
    for combo in product(*(sweep[a] for a in axes)):
        overrides = [f"{a}={json.dumps(v)}" for a, v in zip(axes, combo)]
        point = cfgmod.apply_overrides(base, overrides)
        points.append((dict(zip(axes, combo)), point))
    return points


def _sweep_jobs(batches: list[list], parallel: int) -> list[list]:
    """The jobs of a sweep: one per batch of points, the largest halved until each of parallel workers has one.

    Each half runs its loops once.  Halves stay in place, so the jobs list the
    points in batch order at any parallel.
    """
    jobs = list(batches)
    while len(jobs) < parallel and max(map(len, jobs), default=0) > 1:
        i = max(range(len(jobs)), key=lambda j: len(jobs[j]))
        half = len(jobs[i]) // 2
        jobs[i:i + 1] = [jobs[i][:half], jobs[i][half:]]
    return jobs


def _sweep_group(points: list[tuple]) -> list[dict]:
    """Worker for the sweep points of one job: the loop of each loop_key steps once, for all its points.

    The job's loops step in the passes of engine.passes; the points of a
    pass are written before the next pass steps, which frees its traces.  A
    point whose loop engine.loops left out, as a failed loop does, runs
    alone, so each row, ok or error, is that of a lone run.
    """
    by_key: dict[str, list[tuple]] = {}
    for point in points:
        by_key.setdefault(point[0].loop_key, []).append(point)
    rows = []
    for cfgs in engine.passes(cfg for cfg, _ in points):
        rows += _pass_rows(engine.loops(cfgs), [by_key[cfg.loop_key] for cfg in cfgs])
    return rows


def _pass_rows(traces: dict, groups: list[list[tuple]]) -> list[dict]:
    """The rows of the points of one pass, grouped by loop_key, from the pass's traces."""
    rows = []
    for points in groups:  # one Loop formats the trace.csv of a key
        trace = traces.get(points[0][0].loop_key)
        loop = None if trace is None else Loop(trace)
        rows += [_sweep_point(point, loop) for point in points]
    return rows


def _sweep_point(args: tuple, loop: Loop | None) -> dict:
    """One parsed sweep point; returns its index row without the axis values, never raises."""
    cfg, out_root = args
    digest = cfg.digest
    try:
        summary = run_to_dir(cfg, Path(out_root) / digest[:12], loop)
    except (EngineError, ValueError, OSError) as exc:
        return {"digest": digest, "status": f"error: {exc}"}
    eps_ts = {f"t_eps[{item['eps']:g}]": item["t"] for item in summary["iterations_to_eps"]}
    return dict(  # csv writes a None as an empty field
        digest=digest, status="ok", slope=summary["slope"], r2=summary["r2"], beta_max=summary["beta_max"],
        gamma_hat=summary["gamma_hat"], e_final=summary["e_final"], **eps_ts,
    )


def cmd_sweep(config_path: str, out_dir: str, parallel: int = 1) -> int:
    """Run the Cartesian sweep; per-point failures are recorded, not fatal.

    Output is independent of the parallelism level: each point runs under a
    digest-named subdirectory and index.csv rows are sorted by digest.  Points
    with one batch_key form one job, whose loops step in stacked passes of
    engine.loops, a loop_key's loop once.  A repeated point runs once and its row is
    repeated.  A point that does not parse gets its error row here and no
    job.
    """
    try:
        raw = cfgmod.load_config_file(config_path)
        cfgmod.from_dict(raw, allow_sweep=True)  # validate the base before fanning out
        points = expand_sweep(raw)
        if parallel < 1:
            raise ConfigError(f"--parallel must be >= 1, got {parallel}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_root = Path(out_dir)
    digests, by_digest, batches = [], {}, {}
    for _, point in points:
        try:
            cfg = cfgmod.from_dict(point)
        except ConfigError as exc:
            digest = cfgmod.config_digest(point)
            by_digest[digest] = {"digest": digest, "status": f"error: {exc}"}
        else:
            digest = cfg.digest
            batches.setdefault(cfg.batch_key, {}).setdefault(cfg.loop_key, {})[digest] = (cfg, str(out_root))
        digests.append(digest)
    jobs = _sweep_jobs([[point for key in batch.values() for point in key.values()] for batch in batches.values()],
                       parallel)
    workers = min(parallel, len(jobs))  # a pool starts all its workers at once, busy or not
    if workers <= 1:
        done = [row for job in jobs for row in _sweep_group(job)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = [row for job_rows in pool.map(_sweep_group, jobs) for row in job_rows]

    by_digest.update((row["digest"], row) for row in done)
    rows = [{**by_digest[digest], **{f"axis:{k}": v for k, v in axis_values.items()}}
            for digest, (axis_values, _) in zip(digests, points)]
    rows.sort(key=lambda r: r["digest"])
    fields = sorted({k for row in rows for k in row})
    fields.sort(key=lambda k: (not k.startswith("axis:"), k != "digest", k))
    try:
        out_root.mkdir(parents=True, exist_ok=True)  # points make it too, but a sweep may run none
        with open(out_root / "index.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
    except OSError as exc:
        print(f"sweep: cannot write {out_root}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    n_err = sum(1 for row in rows if row["status"] != "ok")
    print(f"sweep: {len(rows)} points, {n_err} failed, index at {out_root / 'index.csv'}")
    return EXIT_OK


def cmd_audit(run_dir: str) -> int:
    """Audit a completed run directory; findings go to audit.json.

    Exit 0 even when checks fail (violations are findings); exit 3 when the
    state-dependent audits cannot run because states were not retained.
    """
    run_dir = Path(run_dir)
    try:
        cfg = cfgmod.from_dict(cfgmod.load_config_file(run_dir / "config.json"))
        if not (run_dir / "states.npz").exists():  # before trace.csv is parsed
            print(
                "audit: states.npz not found; descent and cross-term audits need "
                "retained states (rerun with retain_states=true)",
                file=sys.stderr,
            )
            return EXIT_NEEDS_STATES
        trace = load_run(run_dir, cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"audit: cannot load run directory {run_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = analysis.build_audit_report(trace, cfg)
    write_json(run_dir / "audit.json", report.to_json_dict())
    for check in report.checks:
        status = "vacuous" if check.vacuous else ("pass" if check.passed else "FINDING")
        print(f"{check.name}: {status} (worst violation {check.worst_violation:.3e})")
    print(
        f"induction-step: {report.induction.n_violations}/{report.induction.n_total} "
        "grid cells violate the claimed inequality"
    )
    return EXIT_OK


def cmd_rate(trace_path: str, window: tuple[int, int] | None = None) -> int:
    """Fit the log-log rate of a trace file and print the result as JSON."""
    try:
        cols = read_trace_csv(Path(trace_path))
    except (ConfigError, OSError) as exc:
        print(f"rate: cannot read {trace_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        fit = analysis.fit_rate(cols["e_t"], window)
    except ValueError as exc:
        print(f"rate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(asdict(fit)))
    return EXIT_OK
