"""The names that benchmarks/tracer.py hooks still resolve in the package.

The tracer wraps package functions and methods by name and reads its
per-layer metrics from the spans those wrappers record, so a rename in
src/bregiter silently zeroes a metric.  This reads the tracer's tables and
layer_metrics' span names and checks each against the package.  The tracer
is executed from its source, so no bytecode is written under benchmarks/.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
#: PARSE_SPANS entries whose function is gone from the package; they time nothing
GONE = {"config.from_file"}


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


TRACER_MODULE = load_tracer()


def package_module(short: str):
    return importlib.import_module(f"bregiter.{short}")


def spanned_functions(short: str) -> set[str]:
    """The module functions that Tracer.install wraps in spans, as module.name."""
    mod = package_module(short)
    names = {n for n, f in vars(mod).items()
             if inspect.isfunction(f) and f.__module__ == mod.__name__ and not n.startswith("_")}
    return {f"{short}.{n}" for n in names}


def method_owners(short: str, meth: str) -> list[type]:
    mod = package_module(short)
    return [cls for cls in vars(mod).values()
            if inspect.isclass(cls) and cls.__module__ == mod.__name__ and meth in vars(cls)]


def all_span_names() -> set[str]:
    """Every span name an installed tracer can record."""
    harness = package_module("harness")
    names = {"harness._sweep_point"} if inspect.isfunction(getattr(harness, "_sweep_point", None)) else set()
    if "np.savez_compressed(" in inspect.getsource(harness):  # the tracer times numpy's writer as this span
        names.add("harness.write_states")
    for short in TRACER_MODULE.MODULES:
        names |= spanned_functions(short)
        names |= {f"{short}.{m}" for m in TRACER_MODULE.SPANNED.get(short, ()) if method_owners(short, m)}
    return names


def layer_metric_spans() -> set[str]:
    """Span names layer_metrics reads: incl(...) arguments, own[...] keys and s[0] == ... comparisons."""
    tree = ast.parse(inspect.getsource(TRACER_MODULE.layer_metrics))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "incl":
            names |= {a.value for a in node.args if isinstance(a, ast.Constant)}
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "own":
            names.add(node.slice.value)
        elif isinstance(node, ast.Compare) and isinstance(node.comparators[0], ast.Constant):
            if isinstance(node.comparators[0].value, str):
                names.add(node.comparators[0].value)
    return names


def test_counted_and_spanned_methods_exist():
    for table in (TRACER_MODULE.COUNTED, TRACER_MODULE.SPANNED):
        for short, methods in table.items():
            for meth in methods:
                assert method_owners(short, meth), f"no class in bregiter.{short} defines {meth}"


def test_parse_spans_resolve_but_the_known_gone_ones():
    spanned = all_span_names()
    assert {name for name in TRACER_MODULE.PARSE_SPANS if name not in spanned} == GONE


def test_hooked_functions_resolve():
    spanned = all_span_names()
    for name in ("engine.run", "engine.iterations_to_epsilon", "harness.write_trace_csv", "harness._sweep_point"):
        assert name in spanned, name


def test_layer_metric_spans_resolve():
    read = layer_metric_spans()
    assert {"engine.run", "harness.summarize", "cli.main", "harness._sweep_point"} <= read  # the parser sees them
    assert sorted(read - all_span_names()) == []
