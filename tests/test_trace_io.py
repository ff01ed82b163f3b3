"""trace.csv I/O against the row-by-row csv-module reference and np.loadtxt.

Traces span a single row, one row either side of the block and two blocks
plus three rows.  Their floats mix values hypothesis draws (nan,
infinities, signed zeros, subnormals, the largest finite doubles, every
double 10^k with its neighbours, the limits of the writer's own decimal
conversion) with random bit patterns; t runs up to 10^7 across every
decade boundary.  The blockwise writer must give the reference writer's
bytes, the reader the reference reader's dtypes and bits, and read ->
write must reproduce the file.  A bulk set of 1.1 million values (random
bit patterns, log-uniform magnitudes, exact ties) holds the writer's
%.16e and %d cells to Python's, value by value, and reads back with the
bits of float() of each field, np.loadtxt unused.  The reader proves
exactly the texts the writer's arithmetic writes itself, and a decade
guess forced one low sends every value through the format and float().
Hand-edited files read to np.loadtxt's bits: off the writer's grammar
through loadtxt itself, in it without loadtxt, and the texts loadtxt
rejects exit 2 with the path.  Traces of shipped configs read without
loadtxt.  load_run must give the Trace the audit used to assemble from a
run directory by hand, here on a bellman run with states kept, whose
summary carries a warning.
"""

import functools
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config as cfgmod, engine, harness
from bregiter.harness import (TRACE_COLUMNS, TRACE_HEADER, TRACE_BLOCK, _csv_blocks, cmd_rate, cmd_run, load_run,
                              read_trace_csv, write_trace_csv)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: every double 10^k and the doubles either side (some round up to the next decade), and the writer's range limits
POWERS = [math.nextafter(p, toward) for p in map(float, (f"1e{k}" for k in range(-323, 309)))
          for toward in (0.0, p, math.inf)]
LIMITS = [sign * math.nextafter(p, toward) for p in (1e-280, 1e280) for toward in (0.0, p, math.inf) for sign in (1, -1)]
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, *POWERS, *LIMITS]
#: t values on either side of every decade boundary up to 10^7
T_EDGES = [0, *(v for j in range(1, 8) for v in (10**j - 1, 10**j))]


@st.composite
def traces(draw):
    n = draw(st.sampled_from([1, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1, 2 * TRACE_BLOCK + 3]))
    drawn = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(EDGE_FLOATS + drawn)
    t = rng.integers(0, 10**7 + 1, size=n)
    t[rng.choice(n, size=min(n, len(T_EDGES)), replace=False)] = rng.permutation(T_EDGES)[:n]
    t = np.sort(t)
    t[-1] = draw(st.sampled_from([int(t[-1]), 10**7]))
    cols = {}
    for _, attr, _ in TRACE_COLUMNS[1:]:
        col = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
        picked = rng.uniform(size=n) < 0.5
        col[picked] = rng.choice(pool, size=int(picked.sum()))
        cols[attr] = col
    return engine.Trace(t=t, **cols)


def as_trace(cols):
    return engine.Trace(**{attr: cols[name] for name, attr, _ in TRACE_COLUMNS})


@settings(max_examples=25, deadline=None)
@given(traces())
def test_trace_io_matches_the_row_by_row_reference(trace):
    with tempfile.TemporaryDirectory() as tmp:
        new, ref, again = Path(tmp, "new.csv"), Path(tmp, "ref.csv"), Path(tmp, "again.csv")
        write_trace_csv(new, trace)
        oracles.write_trace_rows(ref, trace)
        assert new.read_bytes() == ref.read_bytes()

        cols, expected = read_trace_csv(new), oracles.read_trace_rows(ref)
        assert list(cols) == TRACE_HEADER == list(expected)
        for name in TRACE_HEADER:
            assert cols[name].dtype == expected[name].dtype, name
            assert cols[name].tobytes() == expected[name].tobytes(), name
            assert cols[name].flags.c_contiguous, name

        write_trace_csv(again, as_trace(cols))
        assert again.read_bytes() == new.read_bytes()


@functools.cache
def bulk_trace():
    """The bulk set as a Trace: every float in the five float columns, t the int64 edges and random bit patterns.

    The floats are 10^6 random bit patterns (about 9% outside the range the
    writer converts itself, nan and inf among them), 10^5 log-uniform
    magnitudes over every double, 10^4 exact ties at 17 digits (odd
    multiples of 2^(k-17) in [10^k, 10^(k+1)), which Python rounds half to
    even) and EDGE_FLOATS; t takes every int64 edge and random int64 bit
    patterns.
    """
    rng = np.random.default_rng(20261019)
    k = rng.integers(0, 16, size=10**4)
    top = np.minimum(10.0 ** (k + 1), np.ldexp(1.0, 36 + k))  # q below 2^53, so that q * 2^(k-17) is a double
    q = np.floor(np.ldexp(rng.uniform(10.0 ** k, top), 17 - k)).astype(np.int64) | 1
    ties = np.ldexp(q.astype(float), k - 17)
    assert all((Fraction(x) * 10 ** (16 - int(j))).denominator == 2 for x, j in zip(ties.tolist(), k))
    floats = np.concatenate([rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64),
                             np.copysign(10.0 ** rng.uniform(-324, 308.25, size=10**5), rng.uniform(-1, 1, size=10**5)),
                             ties, EDGE_FLOATS])
    rows = -(-floats.size // (len(TRACE_COLUMNS) - 1))
    cols = np.resize(floats, (len(TRACE_COLUMNS) - 1, rows))
    t = np.resize(np.concatenate([[-2**63, -2**63 + 1, 2**63 - 1, -1], np.negative(T_EDGES), T_EDGES,
                                  rng.integers(0, 2**64, size=10**4, dtype=np.uint64).view(np.int64)]), rows)
    return engine.Trace(t=t, **{attr: col for (_, attr, _), col in zip(TRACE_COLUMNS[1:], cols)})


def percent_lines(trace):
    """trace's rows as Python's TRACE_COLUMNS formats write them."""
    row_fmt = ",".join(fmt for _, _, fmt in TRACE_COLUMNS)
    return [row_fmt % row for row in zip(*(getattr(trace, attr).tolist() for _, attr, _ in TRACE_COLUMNS))]


def test_bulk_values_match_percent_format():
    """Each trace.csv field of the bulk set equals its TRACE_COLUMNS format's text, over every path of the writer.

    Under np.errstate(all="raise") no value may raise, and numpy's error
    state is left as found.
    """
    trace = bulk_trace()
    state = np.geterr()
    with np.errstate(all="raise"):
        got = b"".join(_csv_blocks(trace)).decode().splitlines()
    assert np.geterr() == state
    assert got[0] == ",".join(TRACE_HEADER) and len(got) == len(trace) + 1
    bad = [(line, ref) for line, ref in zip(got[1:], percent_lines(trace)) if line != ref]
    assert not bad, bad[:3]


def test_bulk_values_read_back_with_float_bits(tmp_path):
    """The bulk set's bytes read back through read_trace_csv with the bits of float() of each field, loadtxt unused.

    t reads as np.loadtxt reads it, float() of the field as an int64, so a
    t whose float() reaches 2^63 in magnitude is an error: those rows keep
    their floats and take t = 0.  Under np.errstate(all="raise") no field
    may raise, and numpy's error state is left as found.
    """
    trace = bulk_trace()
    t = np.where(np.abs(trace.t.astype(float)) < 2.0**63, trace.t, 0)
    trace = engine.Trace(t=t, **{attr: getattr(trace, attr) for _, attr, _ in TRACE_COLUMNS[1:]})
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    state = np.geterr()
    with np.errstate(all="raise"), mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt")):
        cols = read_trace_csv(path)
    assert np.geterr() == state
    fields = zip(*(line.split(",") for line in path.read_text().splitlines()[1:]))
    for (name, _, _), texts in zip(TRACE_COLUMNS, fields):
        want = np.array([float(text) for text in texts])
        if name == "t":
            want = want.astype(np.int64)
        assert cols[name].dtype == want.dtype, name
        bad = np.flatnonzero(cols[name].view(np.uint64) != want.view(np.uint64))
        assert not bad.size, (name, [texts[j] for j in bad[:3]])


def proven(texts):
    """Which %.16e texts harness._sci_fields proves from one line of them, leaving the rest to float()."""
    line = np.frombuffer(b",".join(texts) + b"\n", np.uint8)
    blk = np.zeros(harness._PAD + line.size + harness._CELL, np.uint8)
    blk[harness._PAD:harness._PAD + line.size] = line
    ends = np.flatnonzero((blk == ord(",")) | (blk == ord("\n")))
    return harness._sci_fields(blk, np.concatenate([[harness._PAD], ends[:-1] + 1]), ends)[1]


def test_the_reader_proves_the_writer_texts_it_writes_itself_and_no_others():
    """A %.16e text is proven when the writer's arithmetic writes it itself; other texts never are."""
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.integers(0, 2**64, size=10**4, dtype=np.uint64).view(np.float64),
                        np.copysign(10.0 ** rng.uniform(-300, 300, size=10**4), rng.uniform(-1, 1, size=10**4)),
                        EDGE_FLOATS])
    texts = [b"%.16e" % v for v in x.tolist()]
    assert (proven(texts) == harness._sci_digits(x)[2]).all()
    assert harness._sci_digits(x)[2].mean() > 0.85
    # the doubles nearest these are 1, 1, 1 - 2^-53, 2^53 and 0, whose texts differ
    others = [b"1.0000000000000001e+00", b"0.1000000000000000e+01", b"9.9999999999999995e-01", b"9.0071992547409930e+15",
              b"0.0000000000000000e+05"]
    assert not proven(others).any()


def test_a_missed_decade_guess_keeps_python_bytes_both_ways(tmp_path, monkeypatch):
    """With every decade guess one low, the %.16e values go to the format and back through float().

    A guess one low makes N at least 1e17 after rounding, the decade rule
    that no log10 of the test machine reaches; the reader proves its values
    by the same arithmetic, so it must leave every one to float().
    """
    rng = np.random.default_rng(7)
    floats = np.concatenate([rng.integers(0, 2**64, size=2 * 10**4, dtype=np.uint64).view(np.float64),
                             np.copysign(10.0 ** rng.uniform(-300, 300, size=10**4), rng.uniform(-1, 1, size=10**4)),
                             EDGE_FLOATS])
    rows = -(-floats.size // (len(TRACE_COLUMNS) - 1))
    cols = np.resize(floats, (len(TRACE_COLUMNS) - 1, rows))
    trace = engine.Trace(t=np.arange(rows), **{attr: col for (_, attr, _), col in zip(TRACE_COLUMNS[1:], cols)})
    monkeypatch.setattr(harness, "_decade", lambda a: np.floor(np.log10(a)).astype(np.int64) - 1)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[1:] == percent_lines(trace)
    texts = [text.encode() for line in lines[1:] for text in line.split(",")[1:]]
    flags = proven(texts)  # zeros, and the few values whose decade log10 guessed one high
    assert (flags == harness._sci_digits(np.array([float(text) for text in texts]))[2]).all() and flags.mean() < 0.05
    got = read_trace_csv(path)
    for (name, _, _), texts in zip(TRACE_COLUMNS[1:], zip(*(line.split(",")[1:] for line in lines[1:]))):
        assert got[name].tobytes() == np.array([float(text) for text in texts]).tobytes(), name


def test_load_run_matches_the_hand_built_trace(tmp_path):
    raw = json.loads((CONFIGS / "bellman.json").read_text())  # its summary carries a warning
    raw.update(iterations=2 * TRACE_BLOCK + 3, retain_states=True, rate_window=None)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    run_dir = tmp_path / "run"
    assert cmd_run(str(cfg_path), str(run_dir)) == 0

    cfg = cfgmod.from_dict(raw)
    trace, expected = load_run(run_dir, cfg), oracles.load_run_fields(run_dir)
    meta = expected["meta"]
    assert trace.s_star.tobytes() == np.asarray(meta["s_star"], dtype=float).tobytes()
    assert trace.gamma_hat == meta["gamma_hat"]
    assert trace.warnings == meta["warnings"] and trace.warnings
    assert trace.final_state is None
    for name in ("t", "e", "a", "alpha", "delta_norm_sq", "eta_div", "states", "etas"):
        got, want = getattr(trace, name), expected[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert (meta["config_digest"], meta["seed"]) == (cfg.digest, cfg.seed)


def loadtxt_columns(path):
    """trace.csv's columns as np.loadtxt reads the rows after the header, t as int64: the reference of every file."""
    with open(path) as fh:
        fh.readline()
        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    cols = dict(zip(TRACE_HEADER, rows.T.copy()))
    cols["t"] = cols["t"].astype(int)
    return cols


def assert_same_columns(got, want):
    assert list(got) == list(want) == TRACE_HEADER
    for name in TRACE_HEADER:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


#: three rows as the writer writes them
ROWS = [b"0,2.5000000000000000e+00,2.5000000000000000e+00,1.0000000000000000e+00,1.2500000000000000e+00,"
        b"1.5102376080284172e-01",
        b"1,1.0485526445180937e+00,4.1942105780723749e+00,6.6666666666666663e-01,5.2427632225904675e-01,"
        b"-8.0777688864983280e-02",
        b"2,6.1138232146530616e-01,5.5024408931877555e+00,5.0000000000000000e-01,2.7325186098935543e-01,"
        b"0.0000000000000000e+00"]


def with_field(text, row=1, column="e_t"):
    """ROWS as a trace body with one field replaced by text."""
    rows = [r.split(b",") for r in ROWS]
    rows[row][TRACE_HEADER.index(column)] = text
    return b"".join(b",".join(r) + b"\n" for r in rows)


#: hand-edited trace bodies that np.loadtxt reads and that leave the writer's grammar, so loadtxt reads the file
OFF_GRAMMAR = {
    "crlf": b"".join(r + b"\r\n" for r in ROWS),
    "blank-line-inside": ROWS[0] + b"\n\n" + b"".join(r + b"\n" for r in ROWS[1:]),
    "blank-line-at-end": b"".join(r + b"\n" for r in ROWS) + b"\n",
    "no-final-newline": b"\n".join(ROWS),
    **{f"spelling-{text.decode()}": with_field(text)
       for text in (b"+1.0", b"1.0E+00", b" 1.5 ", b".5", b"1.", b"NaN", b"infinity", b"1e500")},
}
#: hand-edited trace bodies in the writer's grammar, whose fields are proven or left to float()
IN_GRAMMAR = {
    "3-digit-exponents": with_field(b"1.0000000000000000e+123") + with_field(b"-1.2345678901234567e-105"),
    "no-double's-text": with_field(b"0.1234567890123456e+01") + with_field(b"1.0000000000000000e-00"),
    "t-with-leading-zeros": with_field(b"007", column="t"),
    "t-of-19-digits": with_field(b"1234567890123456789", column="t"),
    "nan-inf": with_field(b"nan") + with_field(b"-inf", row=0, column="alpha_t"),
}


@pytest.mark.parametrize("body", OFF_GRAMMAR.values(), ids=OFF_GRAMMAR)
def test_hand_edited_traces_read_as_loadtxt_reads_them(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_bytes(",".join(TRACE_HEADER).encode() + b"\n" + body)
    assert_same_columns(read_trace_csv(path), loadtxt_columns(path))


@pytest.mark.parametrize("body", IN_GRAMMAR.values(), ids=IN_GRAMMAR)
def test_hand_edited_traces_in_the_writer_grammar_read_as_loadtxt_without_it(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_bytes(",".join(TRACE_HEADER).encode() + b"\n" + body)
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt")):
        got = read_trace_csv(path)
    assert_same_columns(got, loadtxt_columns(path))


#: trace bodies with a field that np.loadtxt rejects, float() accepting the first, the next four of the writer's
#: shape; and a t of the writer's grammar whose float() is 2^63, past int64
REJECTED = {
    "underscore": with_field(b"1_0"), "hex": with_field(b"0x10"), "comment-line": ROWS[0] + b"\n# note\n",
    "letter-among-digits": with_field(b"1.00000000x0000000e+00"), "letter-in-exponent": with_field(b"1.0000000000000000e+0x"),
    "letter-as-lead": with_field(b"x.0000000000000000e+00"), "t-letter": with_field(b"1x", column="t"),
    "t-past-int64": with_field(b"9223372036854775807", column="t"),
}


@pytest.mark.parametrize("body", REJECTED.values(), ids=REJECTED)
def test_text_that_loadtxt_rejects_exits_two(tmp_path, capsys, body):
    path = tmp_path / "trace.csv"
    path.write_bytes(",".join(TRACE_HEADER).encode() + b"\n" + body)
    assert cmd_rate(str(path)) == 2
    assert capsys.readouterr().err.startswith(f"rate: cannot read {path}: {path}")


@pytest.mark.parametrize("name", ["affine_random_noise", "exp_gradient"])
def test_engine_traces_are_read_without_loadtxt(tmp_path, name):
    out = tmp_path / "run"
    assert cmd_run(str(CONFIGS / f"{name}.json"), str(out)) == 0
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt")):
        got = read_trace_csv(out / "trace.csv")
    assert_same_columns(got, loadtxt_columns(out / "trace.csv"))
