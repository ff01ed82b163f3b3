"""Run configuration: strict parsing, canonical serialization, digests.

Configs are flat JSON objects with a fixed schema; unknown keys anywhere are
rejected with the offending path named, and nothing is ever defaulted from
ambient state (in particular the seed is mandatory).  The digest is the
sha256 of the canonical serialization (sorted keys, minimal separators), so
it is stable under key reordering of the file and changes with any value.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .engine import Schedule
from .geometry import Geometry, NegativeEntropy, Quadratic, SquaredEuclidean
from .operators import AffineColinear, AffineRotation, Bellman, ExpGradientStep, GradientStep, Operator
from .perturbation import PerturbationModel


class ConfigError(ValueError):
    """Invalid run config; the message names the offending field."""


_TOP_REQUIRED = {"geometry", "operator", "schedule", "s0", "iterations", "seed"}
_TOP_OPTIONAL = {"perturbation", "retain_states", "eps_list", "rate_window", "sweep"}

#: states are retained by default only up to this dimension
RETAIN_DIM_LIMIT = 10

#: block -> kind -> constructor.  A constructor's keyword parameters are the
#: kind's params (required when they have no default), except those named in
#: BLOCK_KEYS, which keys of the block beside kind and params fill; a param
#: annotated ArrayLike takes a list of numbers (nested for matrices), any
#: other param a number, which the constructor receives as a float.
KINDS = {
    "geometry": {cls.kind: cls for cls in (SquaredEuclidean, Quadratic, NegativeEntropy)},
    "operator": {cls.kind: cls for cls in (AffineColinear, AffineRotation, GradientStep,
                                           ExpGradientStep, Bellman)},
    "schedule": {
        "accelerated": lambda: Schedule("accelerated"),
        "constant": lambda c: Schedule("constant", c=c),
        "polynomial": lambda c=1.0, p=1.0: Schedule("polynomial", c=c, p=p),
    },
}


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
        raise ConfigError(f"{path} has unknown key(s) {unknown}; known: {sorted(required | optional)}")


def _echo(v: Any) -> str:
    """repr(v) for an error message, cut after 60 characters with the full length noted."""
    text = repr(v)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _expect_int(v: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path} must be an integer, got {_echo(v)}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {_echo(v)}")
    return v


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _expect_number(v: Any, path: str, positive: bool = False) -> float:
    if not _is_number(v):
        raise ConfigError(f"{path} must be a number, got {_echo(v)}")
    if positive and not v > 0:
        raise ConfigError(f"{path} must be > 0, got {float(v)}")
    return float(v)


def _is_array(v: Any) -> bool:
    """Whether v is a list of numbers or of such lists; numpy judges the shape."""
    return isinstance(v, list) and all(_is_number(x) or _is_array(x) for x in v)


def _expect_array(v: Any, path: str) -> list:
    if not _is_array(v):
        raise ConfigError(f"{path} must be a list of numbers")
    return v


def _expect_finite(v: Any, path: str = ""):
    """Reject the first NaN, infinity or integer past the float range in a parsed JSON value."""
    if isinstance(v, (int, float)) and not -sys.float_info.max <= v <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {_echo(v)}")
    if isinstance(v, dict):
        for key, x in v.items():
            _expect_finite(x, f"{path}.{key}" if path else key)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            _expect_finite(x, f"{path}[{i}]")


_signature = functools.cache(inspect.signature)

#: constructor parameters that a kind block gives as its own keys, not params, with their checkers
BLOCK_KEYS = {"dim": _expect_int, "context_y": _expect_array}


def _build(block: str, d: Any):
    """Check a kind block against KINDS and construct its object.

    The block's keys besides kind and params are the constructor's
    parameters named in BLOCK_KEYS, required when they have no default; a
    kind whose constructor lacks such a parameter has no such key.
    """
    d = _expect_mapping(d, block)
    kind, kinds = d.get("kind"), KINDS[block]
    if "kind" in d and (not isinstance(kind, str) or kind not in kinds):
        raise ConfigError(f"{block}: unknown kind {kind!r}; known: {sorted(kinds)}")
    signature = _signature(kinds[kind]).parameters if "kind" in d else {}
    keys = {name: p for name, p in signature.items() if name in BLOCK_KEYS}
    _expect_keys(d, {"kind", *(name for name, p in keys.items() if p.default is p.empty)},
                 {"params", *keys}, block)
    params = _expect_mapping(d.get("params", {}), f"{block}.params")
    schema = {name: p for name, p in signature.items() if name not in keys}
    missing = [name for name, p in schema.items() if p.default is p.empty and name not in params]
    if missing:
        raise ConfigError(f"{block}: kind {kind!r} requires params {missing}")
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(f"{block}: unknown params {unknown} for kind {kind!r}; known: {sorted(schema)}")
    checked = {}  # the checkers' values, never the raw JSON ones
    for name, v in params.items():
        check = _expect_array if schema[name].annotation == "ArrayLike" else _expect_number
        checked[name] = check(v, f"{block}.params.{name}")
    checked.update((key, BLOCK_KEYS[key](d[key], f"{block}.{key}")) for key in keys if key in d)
    try:
        return kinds[kind](**checked)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{block}: {exc}") from exc


@dataclass
class RunConfig:
    """Validated run description plus the canonical dict it was built from.

    digest, loop_key and batch_key are computed once, on first use: raw is
    never changed after from_dict builds the config.
    """

    geometry: Geometry
    operator: Operator
    schedule: Schedule
    perturbation: PerturbationModel
    s0: np.ndarray
    iterations: int
    seed: int
    retain_states: bool
    eps_list: list[float]
    rate_window: tuple[int, int] | None
    raw: dict

    @functools.cached_property
    def digest(self) -> str:
        return config_digest(self.raw)

    @functools.cached_property
    def loop_key(self) -> str:
        """Digest of all that engine.run's loop reads; configs with equal keys record equal loops.

        It holds the canonical geometry, operator, schedule, perturbation,
        s0 and iterations, the resolved retain_states, and the seed only
        when the perturbation is not zero: a noise-free loop draws nothing,
        the seed feeds only the contraction estimate of start-up.  eps_list
        and rate_window shape the summary, not the loop.
        """
        return self._loop_digest(None if self.perturbation.is_zero else self.seed)

    @functools.cached_property
    def batch_key(self) -> str:
        """loop_key without the seed and the operator's stackable params: engine.loops steps equal keys in one pass.

        For an operator kind without stackable params, it is loop_key without the seed.
        """
        return self._loop_digest(None, self.operator.stackable)

    def _loop_digest(self, seed: int | None, stacked: tuple[str, ...] = ()) -> str:
        d = self.raw
        op = d["operator"]
        if stacked:
            op = {**op, "params": {k: v for k, v in op["params"].items() if k not in stacked}}
        return config_digest({
            **{k: d.get(k) for k in ("geometry", "schedule", "perturbation", "s0", "iterations")},
            "operator": op,
            "retain_states": self.retain_states,
            "seed": seed,
        })


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

    _expect_finite(d)
    geometry = _build("geometry", d["geometry"])
    operator = _build("operator", d["operator"])
    if operator.dim != geometry.dim:
        raise ConfigError(
            f"operator dimension {operator.dim} does not match geometry.dim {geometry.dim}"
        )
    schedule = _build("schedule", d["schedule"])

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

    s0 = _expect_array(d["s0"], "s0")
    if len(s0) != geometry.dim:
        raise ConfigError(f"s0 has dimension {len(s0)}, geometry.dim is {geometry.dim}")

    iterations = _expect_int(d["iterations"], "iterations", minimum=1)
    seed = _expect_int(d["seed"], "seed", minimum=0)

    retain = d.get("retain_states")
    if retain is None:
        retain = geometry.dim <= RETAIN_DIM_LIMIT
    elif not isinstance(retain, bool):
        raise ConfigError(f"retain_states must be a boolean, got {retain!r}")

    eps_list = d.get("eps_list", [])
    if not isinstance(eps_list, list):
        raise ConfigError("eps_list must be a list of positive numbers")
    eps_list = [_expect_number(v, f"eps_list[{i}]", positive=True) for i, v in enumerate(eps_list)]

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

    cfg = RunConfig(
        geometry=geometry,
        operator=operator,
        schedule=schedule,
        perturbation=perturbation,
        s0=np.asarray(s0, dtype=float),
        iterations=iterations,
        seed=seed,
        retain_states=retain,
        eps_list=eps_list,
        rate_window=window,
        raw=d,
    )
    try:
        cfg.geometry.check_point(cfg.s0, "s0")
    except ValueError as exc:
        raise ConfigError(f"s0: {exc}") from exc
    return cfg


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
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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
        except ValueError:  # not JSON, or an integer past the digit limit: a literal string
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends through a non-object at {part!r}")
        node[parts[-1]] = parsed
    return out
