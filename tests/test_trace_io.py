"""trace.csv I/O against the row-by-row csv-module reference.

Traces span a single row, one row either side of the write block and two
blocks plus three rows.  Their floats mix values hypothesis draws (nan,
infinities, signed zeros, subnormals, the largest finite doubles) with
random bit patterns; t runs up to 10^7.  The blockwise writer must give the
reference writer's bytes, the loadtxt reader the reference reader's dtypes
and bits, and read -> write must reproduce the file.  load_run must give
the Trace the audit used to assemble from a run directory by hand, here on
a bellman run with states kept, whose summary carries a warning.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config as cfgmod, engine
from bregiter.harness import TRACE_COLUMNS, TRACE_HEADER, WRITE_BLOCK, cmd_run, load_run, read_trace_csv, write_trace_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def traces(draw):
    n = draw(st.sampled_from([1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 2 * WRITE_BLOCK + 3]))
    drawn = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(EDGE_FLOATS + drawn)
    t = np.sort(rng.integers(0, 10**7 + 1, size=n))
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
