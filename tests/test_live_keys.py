"""Every key and param a run config accepts changes what the run writes.

For each key, two configs that differ only in that key go through cmd_run
and cmd_audit, and at least one of trace.csv, states.npz, summary.json and
audit.json must differ; the JSON files are compared without config_digest,
which differs whenever the config does.  The keys come from config.KINDS
(each constructor parameter of each kind), the perturbation model's fields
and the top-level keys, so a key added without a
case here fails.  README's table of keys that shape one artifact is read
here too: each of those keys must change that artifact and no other.
"""

import hashlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from bregiter import config
from bregiter.harness import cmd_audit, cmd_run
from bregiter.perturbation import PerturbationModel

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("trace.csv", "states.npz", "summary.json", "audit.json")

#: constructor parameters that a kind block gives as its own keys, not as params
BLOCK_KEY_NAMES = ("dim", "context_y")
#: block keys that restate what other keys fix: changed alone, they make a config error
RESTATED = ("dim",)

MDP = json.loads(json.dumps({"transitions": oracles.MDP_TRANSITIONS, "rewards": oracles.MDP_REWARDS,
                             "discount": 0.9}))
BASE = {
    "geometry": {"kind": "squared-euclidean", "dim": 2},
    "operator": {"kind": "gradient-step", "params": {"a": [[2.0, 0.5], [0.5, 1.0]], "b": [1.0, -1.0], "step": 0.4}},
    "schedule": {"kind": "accelerated"},
    "s0": [0.0, 0.0],
    "iterations": 40,
    "seed": 1,
    "retain_states": True,
}
SIMPLEX = {  # s0 has an entry whose first image falls below a rho of 0.1
    "geometry": {"kind": "negative-entropy", "dim": 3, "params": {"rho": 1e-6}},
    "operator": {"kind": "exp-gradient-step", "params": {"q": [0.5, 0.3, 0.2], "step": 0.5, "rho": 1e-6}},
    "s0": [0.9, 0.09, 0.01],
}
NOISY = {"perturbation": {"mode": "random", "delta0": 0.01, "kappa": 0.1, "injection": "unscaled"}}

#: (block, kind) -> the changes to BASE that make a config of that kind
KIND_BASES = {
    ("geometry", "squared-euclidean"): {},
    ("geometry", "quadratic"): {"geometry": {"kind": "quadratic", "dim": 2, "params": {"a": [[2.0, 0.5], [0.5, 1.0]]}}},
    ("geometry", "negative-entropy"): SIMPLEX,
    ("operator", "affine-colinear"): {"operator": {"kind": "affine-colinear",
                                                   "params": {"gamma": 0.5, "target": [1.0, -1.0]}}},
    ("operator", "affine-rotation"): {"operator": {"kind": "affine-rotation",
                                                   "params": {"gamma": 0.5, "theta": 0.6, "target": [1.0, -1.0]}}},
    ("operator", "gradient-step"): {},
    ("operator", "exp-gradient-step"): SIMPLEX,
    ("operator", "bellman"): {"operator": {"kind": "bellman", "params": MDP}},
    ("schedule", "accelerated"): {},
    ("schedule", "constant"): {"schedule": {"kind": "constant", "params": {"c": 0.5}}},
    ("schedule", "polynomial"): {"schedule": {"kind": "polynomial", "params": {"c": 0.5, "p": 0.5}}},
}

#: key -> (changes to BASE that make the key live, new value); kind keys read block[kind].name
CHANGES = {
    "geometry[squared-euclidean].dim": ({}, 3),
    "geometry[quadratic].dim": (KIND_BASES["geometry", "quadratic"], 3),
    "geometry[quadratic].params.a": (KIND_BASES["geometry", "quadratic"], [[3.0, 0.5], [0.5, 1.0]]),
    "geometry[negative-entropy].dim": (SIMPLEX, 4),
    "geometry[negative-entropy].params.rho": (SIMPLEX, 0.005),
    "operator[affine-colinear].params.gamma": (KIND_BASES["operator", "affine-colinear"], 0.25),
    "operator[affine-colinear].params.target": (KIND_BASES["operator", "affine-colinear"], [1.0, 1.0]),
    "operator[affine-rotation].params.gamma": (KIND_BASES["operator", "affine-rotation"], 0.25),
    "operator[affine-rotation].params.theta": (KIND_BASES["operator", "affine-rotation"], 1.2),
    "operator[affine-rotation].params.target": (KIND_BASES["operator", "affine-rotation"], [1.0, 1.0]),
    "operator[gradient-step].params.a": ({}, [[3.0, 0.5], [0.5, 1.0]]),
    "operator[gradient-step].params.b": ({}, [1.0, 1.0]),
    "operator[gradient-step].params.step": ({}, 0.2),
    "operator[exp-gradient-step].params.q": (SIMPLEX, [0.4, 0.4, 0.2]),
    "operator[exp-gradient-step].params.step": (SIMPLEX, 1.0),
    "operator[exp-gradient-step].params.rho": (SIMPLEX, 0.1),
    "operator[bellman].params.transitions": (KIND_BASES["operator", "bellman"],
                                             [[[0.5, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]),
    "operator[bellman].params.rewards": (KIND_BASES["operator", "bellman"], [[1.0, 0.0], [0.0, 3.0]]),
    "operator[bellman].params.discount": (KIND_BASES["operator", "bellman"], 0.5),
    "schedule[constant].params.c": (KIND_BASES["schedule", "constant"], 0.25),
    "schedule[polynomial].params.c": (KIND_BASES["schedule", "polynomial"], 0.25),
    "schedule[polynomial].params.p": (KIND_BASES["schedule", "polynomial"], 1.0),
    "s0": ({}, [0.5, 0.5]),
    "iterations": ({}, 41),
    "seed": (NOISY, 2),
    "retain_states": ({}, False),
    "perturbation.mode": (NOISY, "adversarial"),
    "perturbation.delta0": (NOISY, 0.02),
    "perturbation.kappa": (NOISY, 0.2),
    "perturbation.injection": (NOISY, "scaled"),  # live only with a budget above zero
    "eps_list": ({}, [1e-3]),
    "rate_window": ({}, [10, 40]),
}
#: block key -> new value, for the kinds that take it
BLOCK_KEY_CHANGES = {"context_y": [[1.0, 2.0]]}


def accepted_keys() -> list[str]:
    """Every key a run config accepts: kind keys as block[kind].name, the rest as dotted paths."""
    keys = []
    for block, kinds in config.KINDS.items():
        for kind, make in kinds.items():
            for name in inspect.signature(make).parameters:
                keys.append(f"{block}[{kind}].{name if name in BLOCK_KEY_NAMES else 'params.' + name}")
    for key in sorted(config._TOP_REQUIRED | config._TOP_OPTIONAL):
        if key == "perturbation":
            keys.extend(f"{key}.{name}" for name in inspect.signature(PerturbationModel).parameters)
        elif key not in config.KINDS and key != "sweep":  # a run rejects a sweep block; the sweep command expands it
            keys.append(key)
    return keys


def case(key: str) -> tuple[dict, str, object]:
    """(base config, dotted override path, new value) of key."""
    match = re.fullmatch(r"(\w+)\[([\w-]+)\]\.(.+)", key)
    if match is None:
        changes, value = CHANGES[key]
        return {**BASE, **changes}, key, value
    block, kind, name = match.groups()
    changes, value = CHANGES[key] if key in CHANGES else (KIND_BASES[block, kind], BLOCK_KEY_CHANGES[name])
    return {**BASE, **changes}, f"{block}.{name}", value


def one_artifact_keys() -> dict[str, str]:
    """README's table of keys that shape one artifact only, as key -> artifact."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| key | shapes only |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    return dict(re.findall(r"^\| `([\w.]+)` \| `([\w.]+)` \|$", table, re.M))


def outputs(raw: dict, out: Path) -> dict:
    """The run's artifacts as bytes, the JSON ones parsed and without config_digest; None if absent."""
    cfg_path = out.with_suffix(".json")
    cfg_path.write_text(json.dumps(raw))
    assert cmd_run(str(cfg_path), str(out)) == 0
    assert cmd_audit(str(out)) in (0, 3)  # 3: no states kept, so no audit.json
    got = {}
    for name in ARTIFACTS:
        path = out / name
        if not path.exists():
            got[name] = None
        elif name.endswith(".json"):
            d = json.loads(path.read_text())
            d.pop("config_digest", None)
            d.get("meta", {}).pop("config_digest", None)
            got[name] = d
        else:
            got[name] = path.read_bytes()
    return got


def test_every_optional_key_is_set_by_a_shipped_config():
    shipped = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    unset = sorted(key for key in config._TOP_OPTIONAL if not any(key in raw for raw in shipped))
    assert not unset, f"no shipped config sets {unset}"


def test_every_case_names_an_accepted_key():
    keys = accepted_keys()
    assert len(keys) == len(set(keys))
    assert set(CHANGES) <= set(keys), sorted(set(CHANGES) - set(keys))
    assert set(one_artifact_keys()) <= set(keys) and one_artifact_keys()


@pytest.mark.parametrize("key", accepted_keys())
def test_each_accepted_key_changes_the_run(tmp_path, capsys, key):
    base, path, value = case(key)
    changed = config.apply_overrides(base, [f"{path}={json.dumps(value)}"])
    if key.rsplit(".", 1)[-1] in RESTATED:
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(changed))
        assert cmd_run(str(cfg_path), str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        return
    a, b = outputs(base, tmp_path / "a"), outputs(changed, tmp_path / "b")
    differ = [name for name in ARTIFACTS if a[name] != b[name]]
    only = one_artifact_keys().get(key)
    if only is not None:
        assert differ == [only]
    else:
        assert differ, f"{key} changes none of {ARTIFACTS}"


@pytest.mark.parametrize("name", ["affine_accel", "affine_rotation", "gradient_step", "exp_gradient"])
def test_context_off_bellman_is_a_config_error(tmp_path, name):
    proc = subprocess.run(
        [sys.executable, "-m", "bregiter.cli", "run", "--config", str(ROOT / "configs" / f"{name}.json"),
         "--out", str(tmp_path / "out"), "--set", "operator.context_y=[[1.0, 2.0]]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: operator has unknown key(s) ['context_y']; known: ['kind', 'params']")
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()


#: sha256 of the artifacts of bellman.json at 2000 steps with a two-entry context.  Re-recorded when
#: s_star became the fixed point of T(., y_0), [15, 15] here: that moved e_t, a_t and the summary
#: fields derived from them, and left every other trace.csv column as it was
BELLMAN_CONTEXT_DIGESTS = {
    "trace.csv": "eae7e5b5b91daa15cfd83469673c7c3c42a87ab92fb7ad5441e4630db90e52a8",
    "summary.json": "bae8f0fdabb6cffdd284ac37532482150b3a69a70cac2fa3da0c159095031444",
}


def test_bellman_context_run_keeps_its_bytes(tmp_path):
    overrides = ["iterations=2000", "rate_window=[200, 2000]", "operator.context_y=[[0.5, -0.5], [0.0]]"]
    assert cmd_run(str(ROOT / "configs" / "bellman.json"), str(tmp_path), overrides=overrides) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in BELLMAN_CONTEXT_DIGESTS}
    assert got == BELLMAN_CONTEXT_DIGESTS
