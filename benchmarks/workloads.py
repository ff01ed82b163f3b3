"""Workload inputs, CLI operations and the golden-digest gate.

Each workload is drawn from a finite pool of inputs built from the shipped
``configs/``.  Every pool member has golden sha256 digests in ``golden.json``,
recorded from the seed code by ``record_golden.py``, so any workload seed can
be checked byte for byte.  The workload seed only chooses pool members: it
picks the ``--seed`` of every run and the gamma x seed grid of every sweep.
The program sees nothing but the generated config files and its CLI flags.

A pass runs, for every run unit, ``run`` then ``rate`` then ``audit``, and
then the workload's sweep once with ``--parallel 1`` and PAR2_REPEATS times
with ``--parallel 2``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from refclock import RefClock, Timing

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("long-clean", "sweep-grid", "noisy-audit")

#: pools the workload seed draws from; golden.json covers all of them
RUN_SEEDS = tuple(range(1, 17))
GAMMAS = tuple(round(0.05 * k, 2) for k in range(1, 13))
POINT_SEEDS = tuple(range(1, 9))

#: exit code of ``audit`` on a run recorded without states
EXIT_NEEDS_STATES = 3


def canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shipped(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


@dataclass(frozen=True)
class RunUnit:
    """One config run with ``run``, then fitted with ``rate`` and audited."""

    name: str
    config: dict
    seed: int
    expect_warning: bool = False

    @property
    def key(self) -> str:
        return sha256(f"{canonical(self.config)}|seed={self.seed}".encode())

    @property
    def iterations(self) -> int:
        return self.config["iterations"]

    @property
    def retains_states(self) -> bool:
        retain = self.config.get("retain_states")
        return self.config["geometry"]["dim"] <= 10 if retain is None else retain

    @property
    def audit_exit(self) -> int:
        return 0 if self.retains_states else EXIT_NEEDS_STATES


@dataclass(frozen=True)
class SweepSpec:
    """A gamma x seed grid over one base config, run serially and with 2 workers."""

    family: str
    base: dict
    gammas: tuple
    seeds: tuple

    @property
    def config(self) -> dict:
        cfg = copy.deepcopy(self.base)
        cfg["sweep"] = {"operator.params.gamma": list(self.gammas), "seed": list(self.seeds)}
        return cfg

    def point_digests(self) -> list[str]:
        """Digests of the expanded points, computed apart from the program."""
        out = []
        for g in self.gammas:
            for s in self.seeds:
                point = copy.deepcopy(self.base)
                point["operator"]["params"]["gamma"] = g
                point["seed"] = s
                out.append(sha256(canonical(point).encode("ascii")))
        return out

    @property
    def points(self) -> int:
        return len(self.gammas) * len(self.seeds)


# --- run unit templates: param -> RunUnit ------------------------------------

def _long(name: str, **changes):
    def make(run_seed: int) -> RunUnit:
        cfg = _shipped(name)
        cfg.update(changes)
        return RunUnit(name, cfg, run_seed, expect_warning=name == "bellman")
    return make


def _affine_dim24(run_seed: int) -> RunUnit:
    """Affine-colinear at dim 24 with e0 = 2.5, so e_t = 2.5/(t+1)^2 as in affine_accel.

    The last eps target is first reached near t = 14142, past the horizon.
    """
    rnd = random.Random(run_seed)
    v = [rnd.gauss(0.0, 1.0) for _ in range(24)]
    scale = 5.0 ** 0.5 / sum(x * x for x in v) ** 0.5
    cfg = {
        "geometry": {"kind": "squared-euclidean", "dim": 24},
        "operator": {"kind": "affine-colinear",
                     "params": {"gamma": 0.5, "target": [x * scale for x in v]}},
        "schedule": {"kind": "accelerated"},
        "s0": [0.0] * 24,
        "iterations": 10000,
        "seed": run_seed,
        "eps_list": [1e-6, 1.25e-8],
    }
    return RunUnit("affine_dim24", cfg, run_seed)


def _noisy(name: str):
    def make(run_seed: int) -> RunUnit:
        return RunUnit(name, _shipped(name), run_seed)
    return make


def _short(param: tuple) -> RunUnit:
    gamma, seed = param
    cfg = _shipped("sweep_gamma")
    del cfg["sweep"]
    cfg.update(iterations=300, retain_states=True)
    cfg["operator"]["params"]["gamma"] = gamma
    return RunUnit(f"short_g{gamma}_s{seed}", cfg, seed)


def _sweep_base(workload: str) -> dict:
    iterations, perturbation, _, _ = SWEEPS[workload]
    cfg = _shipped("sweep_gamma")
    del cfg["sweep"]
    cfg["iterations"] = iterations
    if perturbation is not None:
        cfg["perturbation"] = perturbation
    return cfg


LONG_CLEAN = (
    _long("affine_accel"),
    _long("quadratic_colinear", eps_list=[1e-4, 1e-6]),
    _long("exp_gradient", eps_list=[1e-6, 1e-8]),
    # T=2e4 rather than the shipped 1e5, so that one run holds several passes
    _long("bellman", iterations=20000, rate_window=[2000, 20000]),
    _affine_dim24,
)
NOISY_AUDIT = tuple(_noisy(n) for n in (
    "affine_adversarial_scaled", "affine_adversarial_unscaled", "affine_random_noise",
    "affine_rotation", "gradient_step", "bellman_constant",
))
SHORT_POOL = tuple((g, s) for g in GAMMAS for s in POINT_SEEDS)

#: workload -> (sweep iterations, perturbation, gammas per grid, seeds per grid)
SWEEPS = {
    "long-clean": (1000, None, 4, 4),
    "sweep-grid": (300, None, 8, 6),
    "noisy-audit": (1000, {"mode": "random", "delta0": 1e-3, "kappa": 0.1,
                           "injection": "unscaled"}, 4, 4),
}
SHORT_RUNS = 6
#: --parallel 2 sweeps per pass: two-worker timings vary most from call to call
#: (two workers on two shared vCPUs), so they get more samples
PAR2_REPEATS = 3


@dataclass(frozen=True)
class Plan:
    units: tuple
    sweep: SweepSpec


def build_plan(workload: str, seed: int) -> Plan:
    """The inputs of one workload run; the same seed gives the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rnd = random.Random(f"{workload}/{seed}")
    if workload == "long-clean":
        units = tuple(make(rnd.choice(RUN_SEEDS)) for make in LONG_CLEAN)
    elif workload == "noisy-audit":
        units = tuple(make(rnd.choice(RUN_SEEDS)) for make in NOISY_AUDIT)
    else:
        units = tuple(_short(p) for p in rnd.sample(SHORT_POOL, SHORT_RUNS))
    _, _, n_gamma, n_seed = SWEEPS[workload]
    sweep = SweepSpec(
        workload, _sweep_base(workload),
        tuple(sorted(rnd.sample(GAMMAS, n_gamma))), tuple(sorted(rnd.sample(POINT_SEEDS, n_seed))),
    )
    return Plan(units, sweep)


def pool_units(workload: str) -> list[RunUnit]:
    """Every run unit the workload can draw."""
    if workload == "long-clean":
        return [make(s) for make in LONG_CLEAN for s in RUN_SEEDS]
    if workload == "noisy-audit":
        return [make(s) for make in NOISY_AUDIT for s in RUN_SEEDS]
    return [_short(p) for p in SHORT_POOL]


def pool_sweep(workload: str) -> SweepSpec:
    """The grid that covers every sweep point the workload can draw."""
    return SweepSpec(workload, _sweep_base(workload), GAMMAS, POINT_SEEDS)


# --- executing CLI operations -------------------------------------------------

@dataclass
class OpResult:
    phase: str        # run | rate | audit | sweep1 | sweep2
    name: str
    timing: Timing
    code: object      # exit code, or the traceback text of an uncaught exception
    stdout: str
    steps: int = 0    # iterations recorded (run) or audited (audit)
    points: int = 0   # sweep points
    errors: list = field(default_factory=list)


def call_cli(clock: RefClock, phase: str, name: str, argv: list[str],
             pair: bool = False) -> OpResult:
    """Run ``bregiter <argv>`` in-process and time it; never raises."""
    from bregiter import cli  # imported late: run.py puts the checkout's src/ on the path first

    out, err = io.StringIO(), io.StringIO()

    def invoke():
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception:  # a traceback is a failed operation, not a crash of the benchmark
                return traceback.format_exc()

    code, timing = clock.time(invoke, pair=pair)
    return OpResult(phase, name, timing, code, out.getvalue())


def write_config(path: Path, cfg: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1) + "\n")


def write_inputs(plan: Plan, input_dir: Path) -> None:
    for unit in plan.units:
        write_config(input_dir / f"{unit.name}.json", unit.config)
    write_config(input_dir / "sweep.json", plan.sweep.config)


def run_unit_ops(clock: RefClock, unit: RunUnit, input_dir: Path,
                 out_dir: Path) -> list[OpResult]:
    run_dir = out_dir / unit.name
    cfg = str(input_dir / f"{unit.name}.json")
    ops = [
        call_cli(clock, "run", unit.name, ["run", "--config", cfg, "--out", str(run_dir),
                                           "--seed", str(unit.seed)]),
        call_cli(clock, "rate", unit.name, ["rate", "--trace", str(run_dir / "trace.csv")]),
        call_cli(clock, "audit", unit.name, ["audit", "--dir", str(run_dir)]),
    ]
    ops[0].steps = unit.iterations
    if unit.retains_states:
        ops[2].steps = unit.iterations
    return ops


def sweep_ops(clock: RefClock, spec: SweepSpec, input_dir: Path,
              out_dir: Path) -> list[OpResult]:
    """The sweep once with ``--parallel 1``, then PAR2_REPEATS times with 2.

    Each op is named after its output directory under out_dir.
    """
    cfg = str(input_dir / "sweep.json")
    runs = [("sweep1", 1)] + [(f"sweep2-{k}", 2) for k in range(PAR2_REPEATS)]
    ops = []
    for name, parallel in runs:
        op = call_cli(clock, f"sweep{parallel}", name,
                      ["sweep", "--config", cfg, "--out", str(out_dir / name),
                       "--parallel", str(parallel)], pair=parallel == 2)
        op.points = spec.points
        ops.append(op)
    return ops


# --- observing artifacts --------------------------------------------------------

def _file_digest(path: Path) -> str | None:
    return sha256(path.read_bytes()) if path.is_file() else None


def observe_unit(run_dir: Path, rate_stdout: str) -> dict:
    """Digests of one run unit's artifacts; manifest.json holds timestamps and is left out."""
    return {
        "trace.csv": _file_digest(run_dir / "trace.csv"),
        "summary.json": _file_digest(run_dir / "summary.json"),
        "states.npz": _file_digest(run_dir / "states.npz"),
        "rate": sha256(rate_stdout.encode()),
        "audit.json": _file_digest(run_dir / "audit.json"),
    }


#: which digests each operation of a run unit is answerable for
UNIT_ARTIFACTS = {
    "run": ("trace.csv", "summary.json", "states.npz"),
    "rate": ("rate",),
    "audit": ("audit.json",),
}


def observe_sweep(sweep_dir: Path) -> dict:
    """Header, per-row digests in file order, and per-point artifact digests."""
    index = sweep_dir / "index.csv"
    if not index.is_file():
        return {"header": None, "rows": [], "points": {}, "index": None}
    data = index.read_bytes()
    lines = data.decode().split("\n")
    header, body = lines[0], [ln for ln in lines[1:] if ln]
    col = next(csv.reader([header])).index("digest") if "digest" in header else None
    rows = []
    for line in body:
        digest = next(csv.reader([line]))[col] if col is not None else ""
        rows.append((digest, sha256(line.encode())))
    points = {
        d: {
            "trace.csv": _file_digest(sweep_dir / d[:12] / "trace.csv"),
            "summary.json": _file_digest(sweep_dir / d[:12] / "summary.json"),
        }
        for d, _ in rows
    }
    return {"header": header, "rows": rows, "points": points, "index": sha256(data)}


# --- the gate -------------------------------------------------------------------

def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def check_unit(unit: RunUnit, ops: list[OpResult], out_dir: Path, golden: dict) -> None:
    """Record on each op what makes it fail: an unexpected exit or a digest mismatch."""
    run_op, rate_op, audit_op = ops
    for op, want in ((run_op, 0), (rate_op, 0), (audit_op, unit.audit_exit)):
        if op.code != want:
            op.errors.append(f"exit {op.code!r}, expected {want}")
    ref = golden["runs"].get(unit.key)
    if ref is None:
        run_op.errors.append("no golden digests for this input")
        return
    seen = observe_unit(out_dir / unit.name, rate_op.stdout)
    for op in ops:
        for name in UNIT_ARTIFACTS[op.phase]:
            if seen[name] != ref[name]:
                op.errors.append(f"{name} digest {seen[name]} != golden {ref[name]}")
    if unit.expect_warning and seen["summary.json"] is not None:
        summary = json.loads((out_dir / unit.name / "summary.json").read_text())
        if not any("contraction hypothesis fails" in w for w in summary.get("warnings", [])):
            run_op.errors.append("expected the gamma_hat warning in summary.json")


def check_sweeps(spec: SweepSpec, ops: list[OpResult], out_dir: Path, golden: dict) -> None:
    expected = sorted(spec.point_digests())
    header = golden["index_headers"][spec.family]
    serial_index = None
    for op in ops:
        if op.code != 0:
            op.errors.append(f"exit {op.code!r}, expected 0")
        seen = observe_sweep(out_dir / op.name)
        if seen["header"] != header:
            op.errors.append("index.csv header differs from golden")
        digests = [d for d, _ in seen["rows"]]
        if digests != expected:
            op.errors.append("index.csv rows are not the expected points in digest order")
        for d, row_sha in seen["rows"]:
            ref = golden["points"].get(d)
            if ref is None:
                op.errors.append(f"no golden digests for sweep point {d[:12]}")
                continue
            if row_sha != ref["row"]:
                op.errors.append(f"index.csv row of {d[:12]} differs from golden")
            for name, value in seen["points"][d].items():
                if value != ref[name]:
                    op.errors.append(f"{d[:12]}/{name} digest differs from golden")
        if serial_index is None:
            serial_index = seen["index"]
        elif seen["index"] != serial_index:
            op.errors.append("index.csv of --parallel 2 differs from --parallel 1")
