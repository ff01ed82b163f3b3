"""trace.csv I/O against the row-by-row csv-module reference.

Traces span a single row, one row either side of the write block and two
blocks plus three rows.  Their floats mix values hypothesis draws (nan,
infinities, signed zeros, subnormals, the largest finite doubles, every
double 10^k with its neighbours, the limits of the writer's own decimal
conversion) with random bit patterns; t runs up to 10^7 across every
decade boundary.  The blockwise writer must give the reference writer's
bytes, the loadtxt reader the reference reader's dtypes and bits, and read
-> write must reproduce the file.  A bulk test holds the writer's %.16e and
%d cells to Python's, value by value, over 10^6 random bit patterns, log-
uniform magnitudes and exact ties.  load_run must give the Trace the audit
used to assemble from a run directory by hand, here on a bellman run with
states kept, whose summary carries a warning.
"""

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config as cfgmod, engine
from bregiter.harness import (TRACE_COLUMNS, TRACE_HEADER, WRITE_BLOCK, _csv_blocks, cmd_run, load_run, read_trace_csv,
                              write_trace_csv)

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
    n = draw(st.sampled_from([1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 2 * WRITE_BLOCK + 3]))
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


def test_bulk_values_match_percent_format():
    """Each trace.csv field equals its TRACE_COLUMNS format's text, over every path of the writer.

    The floats are 10^6 random bit patterns (about 9% outside the range the
    writer converts itself, nan and inf among them), 10^5 log-uniform
    magnitudes over every double, 10^4 exact ties at 17 digits (odd
    multiples of 2^(k-17) in [10^k, 10^(k+1)), which Python rounds half to
    even) and EDGE_FLOATS; t takes every int64 edge and random int64 bit
    patterns.  Under np.errstate(all="raise") no value may raise, and
    numpy's error state is left as found.
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
    trace = engine.Trace(t=t, **{attr: col for (_, attr, _), col in zip(TRACE_COLUMNS[1:], cols)})
    state = np.geterr()
    with np.errstate(all="raise"):
        got = b"".join(_csv_blocks(trace)).decode().splitlines()
    assert np.geterr() == state
    row_fmt = ",".join(fmt for _, _, fmt in TRACE_COLUMNS)
    want = (row_fmt % row for row in zip(t.tolist(), *cols.tolist()))
    assert got[0] == ",".join(TRACE_HEADER) and len(got) == rows + 1
    bad = [(line, ref) for line, ref in zip(got[1:], want) if line != ref]
    assert not bad, bad[:3]


def test_load_run_matches_the_hand_built_trace(tmp_path):
    raw = json.loads((CONFIGS / "bellman.json").read_text())  # its summary carries a warning
    raw.update(iterations=2 * WRITE_BLOCK + 3, retain_states=True, rate_window=None)
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
