"""The trace I/O that benchmarks/tracer.py times still runs through harness.

The tracer finds write_trace_csv and read_trace_csv as public functions of
bregiter.harness and reads harness.write_trace_s, harness.read_trace_s and
harness.trace_bytes from their spans.  A run, an audit and a rate fit
through cli.main under an installed tracer must give each of them a value
above 0; a codec reached around those two functions would leave them at 0
while the names still resolve.  The tracer is executed from its source, so
no bytecode is written under benchmarks/.
"""

from pathlib import Path

from bregiter import cli
from test_benchmark_hooks import load_tracer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_a_traced_run_audit_and_rate_time_the_trace_io_in_harness(tmp_path, capsys):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        lo = tracer.begin_pass(0)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(CONFIGS / "affine_accel.json"), "--out", str(out),
                         "--set", "iterations=300", "--set", "rate_window=null"]) == 0
        assert cli.main(["audit", "--dir", str(out)]) == 0
        assert cli.main(["rate", "--trace", str(out / "trace.csv")]) == 0
        metrics = tracer_module.layer_metrics(tracer.spans, lo, len(tracer.spans), tracer.counts)
    finally:
        tracer.uninstall()
    assert metrics["harness.write_trace_s"] > 0
    assert metrics["harness.read_trace_s"] > 0
    assert metrics["harness.trace_bytes"] == (out / "trace.csv").stat().st_size > 0
