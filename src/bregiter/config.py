"""Run configuration: strict parsing, canonical serialization, digests.

Configs are flat JSON objects with a fixed schema; unknown keys anywhere are
rejected with the offending path named, and nothing is ever defaulted from
ambient state (in particular the seed is mandatory).  The digest is the
sha256 of the canonical serialization (sorted keys, minimal separators), so
it is stable under key reordering of the file and changes with any value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .engine import Schedule, make_schedule
from .geometry import Geometry, make_geometry
from .operators import Operator, make_operator
from .perturbation import PerturbationModel


class ConfigError(ValueError):
    """Invalid run config; the message names the offending field."""


TOLERANCE_DEFAULTS = {
    "fixed_point": 1e-14,
    "degenerate_pair": 1e-14,
    "audit_violation": 1e-10,
}

_TOP_REQUIRED = {"geometry", "operator", "schedule", "s0", "iterations", "seed"}
_TOP_OPTIONAL = {
    "perturbation", "retain_states", "tolerances", "eps_list", "rate_window",
    "contraction_pairs", "sweep",
}

#: states are retained by default only up to this dimension
RETAIN_DIM_LIMIT = 10


def _expect_mapping(d: Any, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be an object, got {type(d).__name__}")
    return d


def _expect_keys(d: dict, required: set, optional: set, path: str):
    missing = sorted(required - set(d))
    if missing:
        raise ConfigError(f"{path} is missing required key(s) {missing}")
    unknown = sorted(set(d) - required - optional)
    if unknown:
        raise ConfigError(f"{path} has unknown key(s) {unknown}")


def _expect_int(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path} must be an integer, got {v!r}")
    return v


def _expect_number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path} must be a number, got {v!r}")
    return float(v)


@dataclass
class RunConfig:
    """Validated run description plus the canonical dict it was built from."""

    geometry: Geometry
    operator: Operator
    schedule: Schedule
    perturbation: PerturbationModel
    s0: np.ndarray
    iterations: int
    seed: int
    retain_states: bool
    tolerances: dict
    eps_list: list[float] = field(default_factory=list)
    rate_window: tuple[int, int] | None = None
    contraction_pairs: int = 256
    raw: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    def canonical_json(self) -> str:
        return canonical_json(self.raw)


def canonical_json(d: dict) -> str:
    """Canonical serialization: sorted keys, minimal separators, no NaN."""
    return json.dumps(d, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(d: dict) -> str:
    return hashlib.sha256(canonical_json(d).encode("ascii")).hexdigest()


def from_dict(d: dict, allow_sweep: bool = False) -> RunConfig:
    """Validate a parsed config dict and build the run components."""
    d = _expect_mapping(d, "config")
    _expect_keys(d, _TOP_REQUIRED, _TOP_OPTIONAL, "config")
    if "sweep" in d and not allow_sweep:
        raise ConfigError("config contains a sweep block; expand it with the sweep command")

    gd = _expect_mapping(d["geometry"], "geometry")
    _expect_keys(gd, {"kind", "dim"}, {"params"}, "geometry")
    dim = _expect_int(gd["dim"], "geometry.dim")
    try:
        geometry = make_geometry(gd["kind"], dim, _expect_mapping(gd.get("params", {}), "geometry.params"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc

    od = _expect_mapping(d["operator"], "operator")
    _expect_keys(od, {"kind"}, {"params", "context_y"}, "operator")
    if "context_y" in od and not isinstance(od["context_y"], list):
        raise ConfigError("operator.context_y must be a list")
    try:
        operator = make_operator(
            od["kind"], _expect_mapping(od.get("params", {}), "operator.params"),
            od.get("context_y"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"operator: {exc}") from exc
    if operator.dim != geometry.dim:
        raise ConfigError(
            f"operator dimension {operator.dim} does not match geometry.dim {geometry.dim}"
        )

    sd = _expect_mapping(d["schedule"], "schedule")
    _expect_keys(sd, {"kind"}, {"params"}, "schedule")
    try:
        schedule = make_schedule(sd["kind"], sd.get("params", {}))
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    pd = d.get("perturbation")
    if pd is None:
        perturbation = PerturbationModel()
    else:
        pd = _expect_mapping(pd, "perturbation")
        _expect_keys(pd, {"mode"}, {"delta0", "kappa", "injection"}, "perturbation")
        try:
            perturbation = PerturbationModel(
                mode=pd["mode"],
                delta0=_expect_number(pd.get("delta0", 0.0), "perturbation.delta0"),
                kappa=_expect_number(pd.get("kappa", 0.0), "perturbation.kappa"),
                injection=pd.get("injection", "unscaled"),
            )
        except ValueError as exc:
            raise ConfigError(f"perturbation: {exc}") from exc
    if not perturbation.is_zero and geometry.kind == "negative-entropy":
        raise ConfigError(
            "perturbation: noisy runs are not defined on negative-entropy geometry"
        )
    if operator.kind == "exp-gradient-step" and geometry.kind != "negative-entropy":
        raise ConfigError(f"operator kind 'exp-gradient-step' maps the probability simplex; "
                          f"it needs geometry kind 'negative-entropy', got {geometry.kind!r}")

    s0 = d["s0"]
    if not isinstance(s0, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in s0
    ):
        raise ConfigError("s0 must be a list of numbers")
    if len(s0) != geometry.dim:
        raise ConfigError(f"s0 has dimension {len(s0)}, geometry.dim is {geometry.dim}")

    iterations = _expect_int(d["iterations"], "iterations")
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    seed = _expect_int(d["seed"], "seed")

    retain = d.get("retain_states")
    if retain is None:
        retain = geometry.dim <= RETAIN_DIM_LIMIT
    elif not isinstance(retain, bool):
        raise ConfigError(f"retain_states must be a boolean, got {retain!r}")

    tolerances = dict(TOLERANCE_DEFAULTS)
    td = d.get("tolerances")
    if td is not None:
        td = _expect_mapping(td, "tolerances")
        unknown = sorted(set(td) - set(TOLERANCE_DEFAULTS))
        if unknown:
            raise ConfigError(
                f"tolerances has unknown name(s) {unknown}; known: {sorted(TOLERANCE_DEFAULTS)}"
            )
        for k, v in td.items():
            v = _expect_number(v, f"tolerances.{k}")
            if not v > 0:
                raise ConfigError(f"tolerances.{k} must be > 0, got {v}")
            tolerances[k] = v

    eps_list = d.get("eps_list", [])
    if not isinstance(eps_list, list):
        raise ConfigError("eps_list must be a list of positive numbers")
    eps_out = []
    for i, v in enumerate(eps_list):
        v = _expect_number(v, f"eps_list[{i}]")
        if not v > 0:
            raise ConfigError(f"eps_list[{i}] must be > 0, got {v}")
        eps_out.append(v)

    window = d.get("rate_window")
    if window is not None:
        if (not isinstance(window, list) or len(window) != 2):
            raise ConfigError("rate_window must be a two-element list [t_lo, t_hi]")
        lo = _expect_int(window[0], "rate_window[0]")
        hi = _expect_int(window[1], "rate_window[1]")
        if not 0 <= lo < hi <= iterations:
            raise ConfigError(
                f"rate_window must satisfy 0 <= t_lo < t_hi <= iterations, got [{lo}, {hi}]"
            )
        window = (lo, hi)

    pairs = d.get("contraction_pairs", 256)
    pairs = _expect_int(pairs, "contraction_pairs")
    if pairs < 1:
        raise ConfigError(f"contraction_pairs must be >= 1, got {pairs}")

    cfg = RunConfig(
        geometry=geometry,
        operator=operator,
        schedule=schedule,
        perturbation=perturbation,
        s0=np.asarray(s0, dtype=float),
        iterations=iterations,
        seed=seed,
        retain_states=retain,
        tolerances=tolerances,
        eps_list=eps_out,
        rate_window=window,
        contraction_pairs=pairs,
        raw=d,
    )
    try:
        cfg.geometry.check_point(cfg.s0, "s0")
    except ValueError as exc:
        raise ConfigError(f"s0: {exc}") from exc
    return cfg


def from_file(path: str | Path, allow_sweep: bool = False) -> RunConfig:
    return from_dict(load_config_file(path), allow_sweep=allow_sweep)


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    return _expect_mapping(d, "config")


def apply_overrides(d: dict, overrides: list[str]) -> dict:
    """Apply key=value overrides with dotted paths; values parse as JSON.

    Unparseable values are taken as literal strings so that e.g.
    geometry.kind=quadratic works without inner quotes.  Returns a new dict.
    """
    out = json.loads(json.dumps(d))  # deep copy via round-trip
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {item!r} has an empty key")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends through a non-object at {part!r}")
        node[parts[-1]] = parsed
    return out
