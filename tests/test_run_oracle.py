"""engine.run and the first-passage loop against the checked step-by-step loop.

Configs are drawn from every kind of config.KINDS (geometry x operator x
schedule), with zero, random or adversarial perturbations, scaled or
unscaled, and states retained or not.  Every recorded array must carry the
bits of oracles.run_loop, and every failure its message and iteration.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bregiter import engine
from bregiter.config import KINDS, apply_overrides, from_dict
from bregiter.geometry import DomainError
from bregiter.perturbation import PerturbationModel
from test_batch import spd
from test_harness import CONFIGS, KAPPA0_OVERFLOW, OVERFLOW_CASES, OVERFLOW_TARGET


def simplex_point(rng, dim):
    return (rng.dirichlet(np.ones(dim)) * (1.0 - 2e-4 * dim) + 2e-4).tolist()


GEOMETRIES = {
    "squared-euclidean": lambda rng, dim: {},
    "quadratic": lambda rng, dim: {"a": spd(rng, dim).tolist()},
    "negative-entropy": lambda rng, dim: {"rho": 1e-6},
}


def bellman(rng, dim):
    n_actions = int(rng.integers(1, 4))
    p = rng.uniform(size=(dim, n_actions, dim))
    p /= p.sum(axis=2, keepdims=True)
    block = {"params": {"transitions": p.tolist(), "rewards": rng.standard_normal((dim, n_actions)).tolist(),
                        "discount": float(rng.uniform(0, 0.9))}}
    if rng.uniform() < 0.5:
        block["context_y"] = [rng.standard_normal(n_actions).tolist(), [float(rng.standard_normal())]]
    return block


def gradient_step(rng, dim):
    a = spd(rng, dim)
    step = float(rng.uniform(0.01, 1.0) / np.linalg.eigvalsh(a)[-1])
    return {"params": {"a": a.tolist(), "b": rng.standard_normal(dim).tolist(), "step": step}}


#: operator kind -> (geometry kinds it runs on, block maker)
OPERATORS = {
    "affine-colinear": (tuple(GEOMETRIES), lambda rng, dim, simplex: {"params": {
        "gamma": float(rng.uniform(0, 1)),
        "target": simplex_point(rng, dim) if simplex else rng.standard_normal(dim).tolist()}}),
    "affine-rotation": (("squared-euclidean", "quadratic"), lambda rng, dim, simplex: {"params": {
        "gamma": float(rng.uniform(0, 1)), "theta": float(rng.uniform(-np.pi, np.pi)),
        "target": rng.standard_normal(2).tolist()}}),
    "gradient-step": (("squared-euclidean", "quadratic"), lambda rng, dim, simplex: gradient_step(rng, dim)),
    "exp-gradient-step": (("negative-entropy",), lambda rng, dim, simplex: {"params": {
        "q": simplex_point(rng, dim), "step": float(rng.uniform(0.01, 2.0))}}),
    "bellman": (("squared-euclidean", "quadratic"), lambda rng, dim, simplex: bellman(rng, dim)),
}

SCHEDULES = {
    "accelerated": lambda rng: {},
    "constant": lambda rng: {"c": float(rng.uniform(0.05, 1.0))},
    "polynomial": lambda rng: {"c": float(rng.uniform(0.05, 1.0)), "p": float(rng.uniform(0.0, 2.0))},
}

PAIRS = [(g, o) for o, (geoms, _) in OPERATORS.items() for g in geoms]


def test_strategies_cover_the_kind_table():
    assert set(GEOMETRIES) == set(KINDS["geometry"])
    assert set(OPERATORS) == set(KINDS["operator"])
    assert set(SCHEDULES) == set(KINDS["schedule"])


def draw_config(seed, pair, schedule, mode, injection, retain, iterations):
    return from_dict(draw_raw(seed, pair, schedule, mode, injection, retain, iterations))


def draw_raw(seed, pair, schedule, mode, injection, retain, iterations):
    rng = np.random.default_rng(seed)
    gkind, okind = pair
    dim = 2 if okind == "affine-rotation" else int(rng.integers(1, 5))
    simplex = gkind == "negative-entropy"
    if simplex and dim == 1:
        dim = 2
    raw = {
        "geometry": {"kind": gkind, "dim": dim, "params": GEOMETRIES[gkind](rng, dim)},
        "operator": {"kind": okind, **OPERATORS[okind][1](rng, dim, simplex)},
        "schedule": {"kind": schedule, "params": SCHEDULES[schedule](rng)},
        "s0": simplex_point(rng, dim) if simplex else (rng.standard_normal(dim) * 3.0).tolist(),
        "iterations": iterations,
        "seed": int(rng.integers(0, 2**31)),
        "retain_states": retain,
    }
    if not simplex:
        raw["perturbation"] = {"mode": mode, "delta0": float(rng.choice([0.0, 1e-3, 0.1])),
                               "kappa": float(rng.choice([0.0, 0.1, 0.5])), "injection": injection}
    return raw


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(f, cfg):
    try:
        return f(cfg), None
    except (engine.EngineError, oracles.RunFailure) as exc:
        return None, (str(exc), exc.t)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PAIRS), st.sampled_from(sorted(SCHEDULES)),
       st.sampled_from(["zero", "random", "adversarial"]), st.sampled_from(["unscaled", "scaled"]),
       st.booleans(), st.integers(1, 300), st.sampled_from([1, 2, 7, engine.BLOCK]))
def test_run_matches_the_checked_loop(seed, pair, schedule, mode, injection, retain, iterations, block):
    cfg = draw_config(seed, pair, schedule, mode, injection, retain, iterations)
    want, want_err = outcome(oracles.run_loop, cfg)
    with mock.patch.object(engine, "BLOCK", block):  # short blocks put block ends inside T <= 300
        got, got_err = outcome(engine.run, cfg)
    assert got_err == want_err
    if want is None:
        return
    for name, ref in want.items():
        assert same_bits(getattr(got, name), ref), name


@pytest.mark.parametrize("kappa", [0.0, 1e-3])  # at kappa = 0 the budget does not read e_t, which a block fills
@pytest.mark.parametrize("gkind", ["squared-euclidean", "quadratic"])
@pytest.mark.parametrize("mode, injection", [("random", "unscaled"), ("random", "scaled"),
                                             ("adversarial", "unscaled"), ("adversarial", "scaled")])
def test_noisy_runs_at_dim_24_past_a_block_match_the_checked_loop(gkind, mode, injection, kappa):
    # the drawn configs stop at dim 4; BLAS dot kernels change with the length of a row
    rng = np.random.default_rng(24)
    dim = 24
    cfg = from_dict({
        "geometry": {"kind": gkind, "dim": dim, "params": GEOMETRIES[gkind](rng, dim)},
        "operator": {"kind": "gradient-step", **gradient_step(rng, dim)},
        "schedule": {"kind": "constant", "params": {"c": 0.5}},  # contracts faster than the noise pushes
        "s0": (rng.standard_normal(dim) * 3.0).tolist(),
        "iterations": engine.BLOCK + 301,
        "seed": 11,
        "retain_states": True,
        "perturbation": {"mode": mode, "delta0": 1e-3, "kappa": kappa, "injection": injection},
    })
    want = oracles.run_loop(cfg)
    got = engine.run(cfg)
    assert np.count_nonzero(want["eta_div"]) == cfg.iterations
    for name, ref in want.items():
        assert same_bits(getattr(got, name), ref), name


#: (mode, kappa) -> the row of KAPPA0_OVERFLOW whose divergence overflows: a random eta of budget 0.1 e_t
#: adds to the growth, and an adversarial one, taken along s_t - s_star before T flips its sign, takes from it
OVERFLOW_ROWS = {("zero", 0.0): 512, ("zero", 0.1): 512, ("random", 0.0): 512, ("random", 0.1): 510,
                 ("adversarial", 0.0): 512, ("adversarial", 0.1): 681}


# the oracle runs outside the engine's floating-point mode, and warns where its arithmetic overflows
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("block", [1, 7, engine.BLOCK])
@pytest.mark.parametrize("mode, kappa", OVERFLOW_ROWS)
def test_an_overflowing_divergence_fails_at_its_row_as_in_the_checked_loop(mode, kappa, block):
    cfg = from_dict({**KAPPA0_OVERFLOW,
                     "perturbation": {"mode": mode, "delta0": 1e-3, "kappa": kappa, "injection": "unscaled"}})
    want = outcome(oracles.run_loop, cfg)[1]
    with mock.patch.object(engine, "BLOCK", block), pytest.raises(engine.EngineError) as exc:
        engine.run(cfg)
    u = OVERFLOW_ROWS[mode, kappa]
    assert (str(exc.value), exc.value.t) == want == (f"non-finite divergence at iteration {u}", u)
    assert np.isfinite(exc.value.state).all()


class StubbedGenerator(np.random.Generator):
    """PCG64 whose normal or uniform draws made at given stream positions read 0.

    A position is the bit generator's state before a draw, so a generator
    rewound to an earlier state replays the stubbed draws it passes again.
    Every draw still advances the stream as the plain one does.  positions
    records the position of every call, and hits the stubbed draws made.
    """

    def __init__(self, seed, normals=(), uniforms=()):
        super().__init__(np.random.PCG64(seed))
        self.normals, self.uniforms = set(normals), set(uniforms)
        self.positions = {"normal": [], "uniform": []}
        self.hits = 0

    def _at(self, kind, stubbed):
        at = self.bit_generator.state["state"]["state"]
        self.positions[kind].append(at)
        self.hits += at in stubbed
        return at in stubbed

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        stub = self._at("normal", self.normals)
        x = super().standard_normal(size, dtype, out)
        if stub:
            x[...] = 0.0
        return x

    def random(self, size=None, dtype=np.float64, out=None):  # u of the engine's draws
        stub = self._at("uniform", self.uniforms)
        x = super().random(size, dtype, out)
        return 0.0 if stub else x

    def uniform(self, low=0.0, high=1.0, size=None):  # u of oracles.perturbation_loop
        stub = self._at("uniform", self.uniforms)
        x = super().uniform(low, high, size)
        return 0.0 if stub else x


def stubbed_run(f, cfg, **stubs):
    """f(cfg) with cfg's perturbation stream drawn from a StubbedGenerator; its result and the generator."""
    made, plain = [], np.random.default_rng

    def default_rng(seed=None):  # the contraction estimate draws from seed + 1
        made.append(StubbedGenerator(seed, **stubs) if seed == cfg.seed else plain(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", default_rng):
        out = f(cfg)
    return out, next(rng for rng in made if isinstance(rng, StubbedGenerator))


def noisy_config(injection, delta0=1e-3, **changes):
    return from_dict({
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}},
        "schedule": {"kind": "accelerated"},
        "perturbation": {"mode": "random", "delta0": delta0, "kappa": 0.1, "injection": injection},
        "s0": [0.0, 0.0],
        "iterations": 30,
        "seed": 7,
        "retain_states": True,
        **changes,
    })


#: s0 is the fixed point, so at delta0 = 0 the budget is 0 at row 0; T(s0) misses it by a rounding
#: error, so rows 1 on draw, up to a state that lands on the fixed point again (row 8, and more
#: rows when scaled)
ZERO_BUDGET = {
    "operator": {"kind": "affine-colinear", "params": {"gamma": 0.3, "target": [0.1, 0.2]}},
    "delta0": 0.0,
    "s0": [0.1, 0.2],
    "iterations": 60,
    "seed": 3,
}


@pytest.mark.parametrize("block", [1, 7, engine.BLOCK])
@pytest.mark.parametrize("injection", ["unscaled", "scaled"])
@pytest.mark.parametrize("event", ["direction norm", "u = 0", "budget 0"])
def test_rare_draw_events_match_the_checked_loop(event, injection, block):
    """The rare events of random draws: a direction redrawn for its norm <= 1e-12 and rows whose
    budget is 0 before drawing rows of their block, which rewind the engine's generator, and a
    budget fraction u = 0."""
    if event == "budget 0":
        cfg = noisy_config(injection, **ZERO_BUDGET)
        stubs = {}
    else:
        cfg = noisy_config(injection)
        kind, field = ("normal", "normals") if event == "direction norm" else ("uniform", "uniforms")
        stubs = {field: []}
        for row in (4, 9):  # a step draws one normal per try at a direction, then one uniform
            _, plain = stubbed_run(oracles.run_loop, cfg, **stubs)
            tries = len(stubs[field]) if kind == "normal" else 0  # each stubbed direction is redrawn
            stubs[field].append(plain.positions[kind][row + tries])
    want, oracle_rng = stubbed_run(oracles.run_loop, cfg, **stubs)
    with mock.patch.object(engine, "BLOCK", block):
        got, rng = stubbed_run(engine.run, cfg, **stubs)
    if event == "budget 0":
        assert want["e"][0] == 0 and (want["e"][1:8] > 0).all() and want["e"][8] == 0
    else:
        assert oracle_rng.hits == 2 and rng.hits >= 2
    if event == "u = 0":
        assert want["eta_div"][[4, 9]].tolist() == [0.0, 0.0]
    for name, ref in want.items():
        assert same_bits(getattr(got, name), ref), name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PAIRS), st.sampled_from(sorted(SCHEDULES)),
       st.integers(1, 200), st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4))
@example(0, ("negative-entropy", "exp-gradient-step"), "accelerated", 1, [0.0])  # an image left the rho-interior
def test_first_passages_match_the_checked_loop(seed, pair, schedule, iterations, decades):
    cfg = draw_config(seed, pair, schedule, "zero", "unscaled", False, iterations)
    cap = 600
    s_star, s0, _ = engine._start(cfg)
    e0 = cfg.geometry.divergence(s0, s_star)
    eps_list = [max(e0, 1e-300) * 10.0 ** -k for k in decades]
    want = oracles.passages_loop(cfg, eps_list, cap)
    assert [engine.iterations_to_epsilon(cfg, eps, cap) for eps in eps_list] == want
    trace = engine.run(cfg)  # resumed past the recorded horizon, as summarize does
    assert engine._passages(cfg, s_star, trace.e, trace.final_state, eps_list, cap) == want


@pytest.mark.parametrize("eps, want", [(0.07, 5), (0.04, "non-finite state at iteration 6")])
def test_a_failing_step_past_the_last_target_of_a_block_stays_silent(monkeypatch, eps, want):
    cfg = from_dict({
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}},
        "schedule": {"kind": "accelerated"},
        "s0": [0.0, 0.0],
        "iterations": 3,
        "seed": 1,
    })  # e_t = 2.5 / (t + 1)^2: 0.0694 at t = 5, 0.0510 at t = 6, 0.0391 at t = 7
    plain = type(cfg.operator)._apply

    def apply(self, s, t=0):  # the step of row 6, inside the first block, fails
        return np.full_like(s, np.nan) if np.ndim(t) == 0 and t >= 6 else plain(self, s, t)

    monkeypatch.setattr(type(cfg.operator), "_apply", apply)
    for passage in (lambda c: oracles.passages_loop(c, [eps], 100)[0],
                    lambda c: engine.iterations_to_epsilon(c, eps, 100)):
        got, err = outcome(passage, cfg)
        assert (got if err is None else err[0]) == want


# the oracle runs outside the engine's floating-point mode, and warns where its divergence overflows
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_first_passage_stops_at_a_non_finite_divergence(monkeypatch):
    cfg = from_dict({
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}},
        "schedule": {"kind": "accelerated"},
        "s0": [0.0, 0.0],
        "iterations": 3,
        "seed": 1,
    })
    plain = type(cfg.operator)._apply

    def apply(self, s, t=0):  # a finite state whose divergence overflows, from step 6 on
        return np.full_like(s, 1e200) if np.ndim(t) == 0 and t >= 6 else plain(self, s, t)

    monkeypatch.setattr(type(cfg.operator), "_apply", apply)
    with pytest.raises(oracles.RunFailure) as ref:
        oracles.passages_loop(cfg, [1e-9], 100)
    assert (str(ref.value), ref.value.t) == ("non-finite divergence at iteration 7", 7)
    trace = engine.run(cfg)
    for resume in (lambda: engine.iterations_to_epsilon(cfg, 1e-9, 100),
                   lambda: engine._passages(cfg, np.array([2.0, -1.0]), trace.e, trace.final_state, [1e-9], 100)):
        with pytest.raises(engine.EngineError) as exc:
            resume()
        assert (str(exc.value), exc.value.t) == ("non-finite divergence at iteration 7", 7)
        assert np.isfinite(exc.value.state).all()


def failure(f, cfg):
    """The message, t and state bytes of the failure of f(cfg)."""
    with pytest.raises((engine.EngineError, oracles.RunFailure)) as exc:
        f(cfg)
    return str(exc.value), exc.value.t, np.asarray(exc.value.state).tobytes()


def stepped_config(gkind, mode="zero", kappa=0.0):
    """Ten clean accelerated steps toward target on gkind's geometry, with mode's perturbations of delta0 1e-3."""
    simplex = gkind == "negative-entropy"
    raw = {
        "geometry": {"kind": gkind, "dim": 3, "params": {"rho": 1e-6} if simplex else {}},
        "operator": {"kind": "affine-colinear",
                     "params": {"gamma": 0.5, "target": [0.2, 0.3, 0.5] if simplex else [2.0, -1.0, 0.5]}},
        "schedule": {"kind": "accelerated"},
        "s0": [0.6, 0.3, 0.1] if simplex else [0.0, 0.0, 0.0],
        "iterations": 10,
        "seed": 5,
    }
    if not simplex:
        raw["perturbation"] = {"mode": mode, "delta0": 1e-3, "kappa": kappa, "injection": "unscaled"}
    return from_dict(raw)


def failing_apply(monkeypatch, cfg, images):
    """Make T(s_t) of cfg's operator images[t] for the steps t that images names."""
    plain = type(cfg.operator)._apply

    def apply(self, s, t=0):
        return np.array(images[t], dtype=float) if np.ndim(t) == 0 and t in images else plain(self, s, t)

    monkeypatch.setattr(type(cfg.operator), "_apply", apply)


# the oracle runs outside the engine's floating-point mode, and warns where its arithmetic overflows
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("block", [1, 7, engine.BLOCK])
@pytest.mark.parametrize("step", [3, 6, 8])  # at block 7: inside the first block, its last step, the second
@pytest.mark.parametrize("mode, kappa", [("zero", 0.0), ("random", 0.1), ("adversarial", 0.0),
                                         ("adversarial", 0.1)])
def test_a_non_finite_state_fails_before_a_later_fault_of_its_block(monkeypatch, mode, kappa, step, block):
    # T(s_step) = inf makes s_{step+1} inf, and the adversarial direction of the next step overflows
    cfg = stepped_config("squared-euclidean", mode, kappa)
    failing_apply(monkeypatch, cfg, {step: [np.inf, 1.0, 1.0]})
    want = failure(oracles.run_loop, cfg)
    assert want[:2] == (f"non-finite state at iteration {step}", step)
    raised, plain = [], PerturbationModel.adversarial

    def adversarial(self, *args):
        eta = plain(self, *args)

        def spied(*step):
            try:
                return eta(*step)
            except DomainError as exc:
                raised.append(str(exc))
                raise

        return spied

    monkeypatch.setattr(PerturbationModel, "adversarial", adversarial)
    with mock.patch.object(engine, "BLOCK", block):
        assert failure(engine.run, cfg) == want
    # a block that steps on from s_{step+1} meets the later fault
    later = mode == "adversarial" and (step + 1) // block == step // block
    assert raised == ["||s_t - s_star|| overflows; the adversarial direction is undefined"] * later


# the oracle runs outside the engine's floating-point mode, and warns where its norm overflows
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_overflowing_adversarial_direction_fails_its_step_as_in_the_checked_loop():
    # A = 1e-3 I keeps e_0 finite, so the run starts and its first adversarial direction overflows
    changes, (error, t) = OVERFLOW_CASES["quadratic"]
    overrides = {**changes, "operator.params.target": OVERFLOW_TARGET, "iterations": 5}
    cfg = from_dict(apply_overrides(json.loads((CONFIGS / "affine_adversarial_scaled.json").read_text()),
                                    [f"{k}={json.dumps(v)}" for k, v in overrides.items()]))
    want = failure(oracles.run_loop, cfg)
    assert want == (error, t, np.zeros(2).tobytes())
    assert failure(engine.run, cfg) == want


@pytest.mark.parametrize("block", [1, 7, engine.BLOCK])
@pytest.mark.parametrize("image", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [0.5, np.inf, 0.5], [-np.inf, 0.5, 0.5]])
def test_a_non_finite_state_on_the_simplex_fails_unprojected_before_a_later_drift_escape(monkeypatch, image, block):
    # the drift repair fails every non-finite state, also one whose nan the min of its entries skips
    cfg = stepped_config("negative-entropy")
    failing_apply(monkeypatch, cfg, {4: image, 6: [3.0, 0.5, -2.5]})
    want = failure(oracles.run_loop, cfg)
    assert want[:2] == ("non-finite state at iteration 4", 4)
    with mock.patch.object(engine, "BLOCK", block):
        assert failure(engine.run, cfg) == want
    monkeypatch.undo()
    failing_apply(monkeypatch, cfg, {6: [3.0, 0.5, -2.5]})  # the later fault, alone
    want = failure(oracles.run_loop, cfg)
    assert want[0].startswith("domain escape at iteration 6: simplex drift exceeds repairable tolerance")
    with mock.patch.object(engine, "BLOCK", block):
        assert failure(engine.run, cfg) == want


@pytest.mark.parametrize("block", [1, 7, engine.BLOCK])
@pytest.mark.parametrize("gkind", ["squared-euclidean", "negative-entropy"])
@pytest.mark.parametrize("met", [5, None])
def test_a_passage_meets_its_targets_before_a_failing_pair_or_fails_at_its_first(monkeypatch, gkind, met, block):
    cfg = stepped_config(gkind)
    e = oracles.run_loop(cfg)["e"]
    assert (np.diff(e) < 0).all()
    eps = e[met] if met is not None else e[8]
    failing_apply(monkeypatch, cfg, {6: [0.5, 0.5, np.nan], 8: [3.0, 0.5, -2.5]})  # a drift escape on the simplex
    with mock.patch.object(engine, "PASSAGE_BLOCKS", (block,)):
        if met is not None:
            assert oracles.passages_loop(cfg, [eps], 100) == [met]
            assert engine.iterations_to_epsilon(cfg, eps, 100) == met
        else:
            want = failure(lambda c: oracles.passages_loop(c, [eps], 100), cfg)
            assert want[:2] == ("non-finite state at iteration 6", 6)
            assert failure(lambda c: engine.iterations_to_epsilon(c, eps, 100), cfg) == want
