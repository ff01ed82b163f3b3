"""The step's scalar operands reach numpy as 0-d arrays, with the bits of python floats.

Every constant of a step is a read-only 0-d float64 array of its operator,
and alpha_t, 1 - alpha_t and the scale factors of an eta are 0-d registers
(engine docstring, "0-d operands").  numpy converts a python float operand
to the same float64, so each element gets the same IEEE operation; these
tests pin that, byte for byte, against the float forms frozen in
tests/oracles.py, on values that include +-0.0, subnormals, +-inf, nan and
magnitudes near 1e+-300.
"""

import inspect
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config as cfgmod, engine
from bregiter.engine import Schedule
from bregiter.geometry import DomainError, Quadratic, SquaredEuclidean
from bregiter.operators import AffineColinear, AffineRotation, Bellman, ExpGradientStep, GradientStep
from bregiter.perturbation import PerturbationModel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: the per-step constants of each operator kind, read-only 0-d float64 arrays, and the float each holds
CONSTANTS = {
    "affine-colinear": {"_gamma": lambda op: op.gamma},
    "affine-rotation": {"_gamma": lambda op: op.gamma},
    "gradient-step": {"_step": lambda op: op.step},
    "exp-gradient-step": {"_one": lambda op: 1.0, "_neg_step": lambda op: -op.step},
    "bellman": {"_discount": lambda op: op.discount},
}

#: attributes that _apply reads as python floats: rho is compared, and only hold_at_rho's rare branch computes with it
COMPARED = {"rho"}

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
         1.7976931348623157e308, math.inf, -math.inf, math.nan)
floats = st.one_of(st.sampled_from(EDGES), st.floats(allow_subnormal=True))
unit = st.one_of(st.sampled_from((0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53)), st.floats(0.0, 1.0, exclude_max=True))
positive = st.one_of(st.sampled_from((5e-324, 1e-300, 1.0, 1e300, math.inf)), st.floats(min_value=5e-324))
dims = st.integers(1, 5)


def vectors(dim, rows=None, elements=floats):
    size = dim if rows is None else rows * dim
    return st.lists(elements, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=float).reshape(-1 if rows is None else (rows, dim)))


def same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def operators(draw, kind, dim):
    """An operator of kind with edge-valued params; dim is 2 for affine-rotation and 2 states for bellman."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "affine-colinear":
        return AffineColinear(draw(unit), draw(vectors(dim)))
    if kind == "affine-rotation":
        return AffineRotation(draw(unit), draw(floats.filter(math.isfinite)), draw(vectors(2)))
    if kind == "gradient-step":
        m = rng.standard_normal((dim, dim))
        return GradientStep(m @ m.T + dim * np.eye(dim), draw(vectors(dim)), draw(positive))
    if kind == "exp-gradient-step":
        q = rng.dirichlet(np.ones(dim)) * (1.0 - 2e-6 * dim) + 2e-6
        return ExpGradientStep(q / q.sum(), draw(positive))
    p = rng.dirichlet(np.ones(2), size=(2, 2))
    context = draw(st.one_of(st.none(), st.lists(vectors(2, 2), min_size=1, max_size=3)))
    return Bellman(p / p.sum(axis=-1, keepdims=True), draw(vectors(2, 2)), draw(unit), context)


def states(kind, dim, rows=None):
    """Edge-valued states, and for exp-gradient-step also points of the simplex's interior."""
    dim = 2 if kind in ("affine-rotation", "bellman") else dim
    if kind != "exp-gradient-step":
        return vectors(dim, rows)
    inner = vectors(dim, rows, st.floats(1e-6, 1.0)).map(lambda s: s / s.sum(axis=-1, keepdims=True))
    return st.one_of(inner, vectors(dim, rows))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CONSTANTS)), dims, st.integers(1, 4), st.data())
def test_every_kind_steps_a_row_and_a_batch_with_the_bits_of_float_operands(kind, dim, rows, data):
    op = data.draw(operators(kind, dim))
    s, batch = data.draw(states(kind, op.dim)), data.draw(states(kind, op.dim, rows))
    t = data.draw(st.integers(0, 5))
    with np.errstate(all="ignore"):
        assert same(op._apply(s, t), oracles.float_apply(op, s, t))
        assert same(op._apply(batch, np.full(rows, t)), oracles.float_apply(op, batch, np.full(rows, t)))


@settings(max_examples=60, deadline=None)
@given(dims, st.integers(2, 4), st.data())
def test_a_stacked_row_keeps_the_bits_of_its_lone_float_step(dim, rows, data):
    ops = [data.draw(operators("affine-colinear", dim)) for _ in range(rows)]
    stacked = AffineColinear.stack(ops)
    batch = data.draw(vectors(dim, rows))
    with np.errstate(all="ignore"):
        got = stacked._apply(batch)
        assert same(got, oracles.float_apply(stacked, batch))
        for r, op in enumerate(ops):
            assert same(got[r], oracles.float_apply(op, batch[r]))


@settings(max_examples=100, deadline=None)
@given(dims, st.data())
def test_the_average_has_the_bits_of_float_weights(dim, data):
    """One step of engine._blocks: s_1 = (1 - alpha_0) s_0 + alpha_0 T(s_0), with T(s_0) and alpha_0 as floats."""
    op = data.draw(operators("affine-colinear", dim))
    c = data.draw(st.one_of(st.sampled_from((5e-324, 1e-300, 0.5, 1.0)), st.floats(5e-324, 1.0)))
    cfg = SimpleNamespace(geometry=SquaredEuclidean(dim), operator=op, schedule=Schedule("constant", c),
                          perturbation=PerturbationModel())
    s0 = data.draw(vectors(dim))
    buf = engine._buffers(2, (dim,))
    with np.errstate(all="ignore"):
        list(engine._blocks(cfg, op.target, 0, s0, None, buf, [2], 1, [None]))
        want = oracles.float_average(s0, oracles.float_apply(op, s0), c)
    assert same(buf[0][1], want)


@settings(max_examples=200, deadline=None)
@given(dims, st.sampled_from(("squared-euclidean", "quadratic")), st.sampled_from(("unscaled", "scaled")), st.data())
def test_the_adversarial_eta_has_the_bits_of_float_scales(dim, kind, injection, data):
    g = SquaredEuclidean(dim) if kind == "squared-euclidean" else Quadratic(dim, np.diag(np.arange(1.0, dim + 1)))
    pm = PerturbationModel("adversarial", data.draw(positive), data.draw(st.sampled_from((0.0, 0.5, 1e300))),
                           injection)
    s_star, s_t = data.draw(vectors(dim)), data.draw(vectors(dim))
    if data.draw(st.booleans()):
        s_t = s_star.copy()  # the direction is drawn
    e_t, alpha_t = data.draw(floats), data.draw(floats)
    seed = data.draw(st.integers(0, 2**32 - 1))
    eta = pm.adversarial(g, s_star, np.random.default_rng(seed))
    with np.errstate(all="ignore"):
        try:
            want = oracles.float_adversarial_eta(pm, g, s_star, np.random.default_rng(seed), s_t, e_t, alpha_t)
        except ValueError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                eta(s_t, e_t, np.array(alpha_t))
            return
        assert same(eta(s_t, e_t, np.array(alpha_t)), want)


@settings(max_examples=200, deadline=None)
@given(dims, st.sampled_from(("unscaled", "scaled")), st.data())
def test_eta_along_has_the_bits_of_float_scales(dim, injection, data):
    pm = PerturbationModel("random", 1.0, 0.0, injection)
    direction, zero = data.draw(vectors(dim)), SquaredEuclidean(dim).zero
    base, target, alpha_t = data.draw(floats), data.draw(floats), data.draw(floats)
    with np.errstate(all="ignore"):
        got = outcome(pm.eta_along, direction, base, target, np.array(alpha_t), zero, np.empty(()))
        assert got == outcome(oracles.float_eta_along, pm, direction, base, target, alpha_t, zero)


def outcome(f, *args):
    """The dtype, shape and bytes of f(*args), or the type and message of what it raises (math's float errors)."""
    try:
        out = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


# ---------------------------------------------------------------------------
# the constants themselves


def shipped_operators():
    """One operator of each kind, from the shipped configs."""
    ops = {}
    for path in sorted(CONFIGS.glob("*.json")):
        op = cfgmod.from_dict(cfgmod.load_config_file(str(path)), allow_sweep=True).operator
        ops.setdefault(op.kind, op)
    assert sorted(ops) == sorted(CONSTANTS)
    return ops


def is_constant(x, shape=()):
    return isinstance(x, np.ndarray) and x.shape == shape and x.dtype == np.float64 and not x.flags.writeable


@pytest.mark.parametrize("kind", sorted(CONSTANTS))
def test_every_step_constant_is_a_read_only_0d_float64_array(kind):
    op = shipped_operators()[kind]
    for name, value in CONSTANTS[kind].items():
        assert is_constant(getattr(op, name)), name
        assert getattr(op, name).tobytes() == np.float64(value(op)).tobytes()
    read = set(re.findall(r"self\.(\w+)", inspect.getsource(type(op)._apply)))
    floats_read = {name for name in read if isinstance(getattr(op, name), (float, np.floating))}
    assert floats_read <= COMPARED, f"{kind}._apply reads python floats {floats_read - COMPARED}"


@pytest.mark.parametrize("kind", sorted(CONSTANTS))
def test_every_stack_replaces_each_constant_with_its_rows(kind):
    """Only affine-colinear stacks; a kind without stack never shares a pass between rows of other constants."""
    op = shipped_operators()[kind]
    assert hasattr(type(op), "stack") == bool(op.stackable) == (kind == "affine-colinear")
    if not op.stackable:  # test_rows_that_differ_in_a_constant_keep_their_lone_bits
        return
    ops = [AffineColinear(gamma, op.target) for gamma in (0.0, 5e-324, 0.25, 0.75)]
    out = AffineColinear.stack(ops)
    for name in CONSTANTS[kind]:
        assert is_constant(getattr(out, name), (len(ops), 1)), name
        assert getattr(out, name).tobytes() == np.array([[getattr(o, name)] for o in ops]).tobytes()


#: a shipped config of each kind, and the param whose constant its rows vary
VARIED = [("affine_accel", "gamma", (0.25, 0.5, 0.75)), ("affine_rotation", "gamma", (0.5, 0.9)),
          ("gradient_step", "step", (0.1, 0.3)), ("exp_gradient", "step", (0.5, 1.0)),
          ("bellman_constant", "discount", (0.5, 0.9))]


@pytest.mark.parametrize("name, param, values", VARIED)
def test_rows_that_differ_in_a_constant_keep_their_lone_bits(name, param, values):
    raw = cfgmod.load_config_file(str(CONFIGS / f"{name}.json"))
    raw.update(iterations=200, rate_window=None)
    cfgs = []
    for value in values:
        point = {**raw, "operator": {**raw["operator"], "params": {**raw["operator"]["params"], param: value}}}
        cfgs += [cfgmod.from_dict({**point, "seed": seed}) for seed in (1, 2)]
    got = {}
    for cfgs_of_pass in engine.passes(cfgs):
        got.update(engine.loops(cfgs_of_pass))
    for cfg in cfgs:
        lone = engine.run(cfg)
        assert got[cfg.loop_key].e.tobytes() == lone.e.tobytes()
        assert got[cfg.loop_key].final_state.tobytes() == lone.final_state.tobytes()
