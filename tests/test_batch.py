"""The batch axis of the geometry and operator maps.

A (B, dim) batch must give every row exactly the bits of the 1-d call
(np.array_equal, not allclose), and a 1-d call the bits of the plain 1-d
formula the recorded digests were made with (np.dot, @, tensordot, np.sum,
np.linalg.solve).
The maps reduce over coordinates with np.vecdot and stacked np.matmul
because those keep the per-row BLAS dot order; einsum, tensordot, a 2-d @
or a sum of products fail these tests on a large share of rows.  An
operator's lone (dim,) row may take the matrix-vector A @ s instead, which
the tests below pin to the bits of its row of a batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter.geometry import (
    DomainError,
    NegativeEntropy,
    Quadratic,
    SquaredEuclidean,
    hold_at_rho,
    three_point_residual,
)
from bregiter.operators import (
    AffineColinear,
    AffineRotation,
    Bellman,
    ExpGradientStep,
    GradientStep,
)

GEOMETRY_KINDS = ("squared-euclidean", "quadratic", "negative-entropy")
OPERATOR_KINDS = ("affine-colinear", "affine-rotation", "gradient-step", "exp-gradient-step", "bellman")

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 24)
sizes = st.integers(1, 40)


def spd(rng, dim):
    m = rng.standard_normal((dim, dim))
    a = m @ m.T + dim * np.eye(dim)
    return (a + a.T) / 2.0


def make_geometry(kind, dim, rng):
    if kind == "squared-euclidean":
        return SquaredEuclidean(dim)
    if kind == "quadratic":
        return Quadratic(dim, spd(rng, dim))
    return NegativeEntropy(dim, rho=1e-6)


def points(g, rng, n):
    """n valid points of g, spread over several orders of magnitude off the simplex."""
    if g.kind == "negative-entropy":
        return g.sample_point(rng, n)
    return rng.standard_normal((n, g.dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))


def rowwise(f, rows, *more):
    return np.array([f(r, *(m[i] for m in more)) for i, r in enumerate(rows)])


def plain_divergence(g, s, r):
    """The 1-d formulas of the divergences, one point pair at a time."""
    d = s - r
    if g.kind == "squared-euclidean":
        return 0.5 * float(np.dot(d, d))
    if g.kind == "quadratic":
        return 0.5 * float(d @ g.a @ d)
    return float(np.sum(s * (np.log(s) - np.log(r))))


def plain_grad(g, s):
    if g.kind == "squared-euclidean":
        return s.copy()
    if g.kind == "quadratic":
        return g.a @ s
    return 1.0 + np.log(s)


def plain_mirror(g, dual):
    if g.kind == "squared-euclidean":
        return dual.copy()
    if g.kind == "quadratic":
        return np.linalg.solve(g.a, dual)
    w = np.exp(dual - dual.max())
    return w / w.sum()


def plain_apply(op, s, t):
    """The 1-d formulas of the operators, one state at a time."""
    if op.kind == "affine-colinear":
        return op.gamma * s + (1.0 - op.gamma) * op.target
    if op.kind == "affine-rotation":
        return op.gamma * (op.rot @ (s - op.target)) + op.target
    if op.kind == "gradient-step":
        return s - op.step * (op.a @ s - op.b)
    if op.kind == "exp-gradient-step":
        w = s * np.exp(-op.step * (np.log(s) - np.log(op.q) + 1.0))
        w = w / w.sum()
        held = w < op.rho
        out = w / w.sum()
        while held.any():  # hold the entries below rho at rho, rescale the others to fill the rest
            out = w / np.where(held, 0.0, w).sum() * (1.0 - op.rho * held.sum())
            out[held] = op.rho
            if not (out < op.rho).any():
                break
            held |= out < op.rho
        return out
    r = op.rewards + op.context_y[t % len(op.context_y)]
    return (r + op.discount * np.tensordot(op.transitions, s, axes=([2], [0]))).max(axis=1)


# ---------------------------------------------------------------------------
# geometry maps


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(GEOMETRY_KINDS), dims, sizes)
def test_geometry_maps_batch_rowwise(seed, kind, dim, n):
    rng = np.random.default_rng(seed)
    g = make_geometry(kind, dim, rng)
    s, r = points(g, rng, n), points(g, rng, n)
    assert np.array_equal(g.check_point(s), s)
    assert np.array_equal(g.divergence(s, r), rowwise(g.divergence, s, r))
    assert np.array_equal(g.divergence(s, r[0]), rowwise(lambda x: g.divergence(x, r[0]), s))
    assert np.array_equal(g.grad(s), rowwise(g.grad, s))
    assert type(g.divergence(s[0], r[0])) is float
    assert np.array_equal(g.divergence(s, r), rowwise(lambda x, y: plain_divergence(g, x, y), s, r))
    assert np.array_equal(g.grad(s), rowwise(lambda x: plain_grad(g, x), s))


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(GEOMETRY_KINDS), dims, sizes)
def test_mirror_and_three_point_residual_batch_rowwise(seed, kind, dim, n):
    rng = np.random.default_rng(seed)
    g = make_geometry(kind, dim, rng)
    dual = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    assert np.array_equal(g.mirror(dual), rowwise(g.mirror, dual))
    assert np.array_equal(g.mirror(dual), rowwise(lambda x: plain_mirror(g, x), dual))
    u, v, w = (points(g, rng, n) for _ in range(3))
    residual = three_point_residual(g, u, v, w)
    assert np.array_equal(residual, rowwise(lambda x, y, z: three_point_residual(g, x, y, z), u, v, w))
    assert np.array_equal(residual, rowwise(lambda x, y, z: oracles.three_point_loop(g, x, y, z), u, v, w))
    assert type(three_point_residual(g, u[0], v[0], w[0])) is float


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(GEOMETRY_KINDS), dims, sizes)
def test_batched_sampling_continues_the_point_stream(seed, kind, dim, n):
    g = make_geometry(kind, dim, np.random.default_rng(seed))
    batch_rng, point_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = g.sample_point(batch_rng, n)
    assert batch.shape == (n, dim)
    assert np.array_equal(batch, np.array([g.sample_point(point_rng) for _ in range(n)]))
    assert np.array_equal(g.sample_point(batch_rng), g.sample_point(point_rng))


# ---------------------------------------------------------------------------
# operators


def make_operator(kind, dim, rng):
    """An operator of the kind with random parameters, and the geometry its inputs come from."""
    if kind == "affine-rotation":
        dim = 2
    g = NegativeEntropy(dim, rho=1e-6) if kind == "exp-gradient-step" else SquaredEuclidean(dim)
    if kind == "affine-colinear":
        return AffineColinear(rng.uniform(0, 1), rng.standard_normal(dim)), g
    if kind == "affine-rotation":
        return AffineRotation(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi), rng.standard_normal(2)), g
    if kind == "gradient-step":
        return GradientStep(spd(rng, dim), rng.standard_normal(dim), rng.uniform(0.01, 1.0)), g
    if kind == "exp-gradient-step":
        return ExpGradientStep(g.sample_point(rng), rng.uniform(0.01, 2.0)), g
    n_actions = int(rng.integers(1, 4))
    p = rng.uniform(size=(dim, n_actions, dim))
    p /= p.sum(axis=2, keepdims=True)
    # context entries of three shapes, each broadcast against the rewards
    context = [rng.standard_normal((dim, n_actions)), rng.standard_normal(n_actions), [rng.standard_normal()]]
    op = Bellman(p, rng.standard_normal((dim, n_actions)), rng.uniform(0, 1), context_y=context)
    return op, g


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(OPERATOR_KINDS), dims, sizes)
def test_operator_apply_batch_rowwise(seed, kind, dim, n):
    rng = np.random.default_rng(seed)
    op, g = make_operator(kind, dim, rng)
    s = points(g, rng, n)
    t = rng.integers(0, 50, n)
    assert np.array_equal(op.apply(s, t), rowwise(lambda x, ti: op.apply(x, int(ti)), s, t))
    assert np.array_equal(op.apply(s, 0), rowwise(op.apply, s))
    assert np.array_equal(op.apply(s, t), rowwise(lambda x, ti: plain_apply(op, x, int(ti)), s, t))


def test_exp_gradient_images_stay_in_the_rho_interior():
    # at step 3 some images have entries below rho before the hold; renormalising after a clip left them there
    g = NegativeEntropy(3, rho=1e-6)
    op = ExpGradientStep([0.5, 0.3, 0.2], 3.0)
    s = g.sample_point(np.random.default_rng(0), 512)
    images = op.apply(s)
    assert (images == op.rho).any()
    g.check_point(images, "image")
    assert np.array_equal(images, rowwise(lambda x: plain_apply(op, x, 0), s))


def test_exp_gradient_hold_takes_a_second_pass():
    # q[0] is just below rho, so it is held; the rescale then pushes q[1], just above rho, below it
    rho = 1e-6
    q = np.array([rho * (1 - 9e-10), np.nextafter(rho, 1.0), 0.5, 0.0])
    q[3] = 1.0 - q[:3].sum()
    g = NegativeEntropy(4, rho)
    op = ExpGradientStep(q, 0.5)
    rows = np.vstack([q, g.sample_point(np.random.default_rng(1), 7)])
    images = op.apply(rows)
    np.testing.assert_array_equal(images[0, :2], [rho, rho])
    g.check_point(images, "image")
    assert np.array_equal(images, rowwise(lambda x: plain_apply(op, x, 0), rows))
    assert np.array_equal(images, rowwise(op.apply, rows))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(["exp-gradient-step", "bellman"]), dims, sizes, st.booleans())
def test_operator_maps_have_the_bits_of_their_per_call_formulas(seed, kind, dim, n, context):
    rng = np.random.default_rng(seed)
    op, g = make_operator(kind, dim, rng)
    if kind == "bellman" and not context:
        op = Bellman(op.transitions, op.rewards, op.discount)
    oracle = oracles.exp_gradient_apply if kind == "exp-gradient-step" else oracles.bellman_apply
    s = points(g, rng, n)
    t = rng.integers(0, 50, n)
    assert same_bits(op.apply(s, t), oracle(op, s, t))
    assert same_bits(op.apply(s[0], int(t[0])), oracle(op, s[0], int(t[0])))


ENTRIES = {  # entries written over some of the inputs of an operator
    "rho": [1e-6, 1e-6 * (1 - 1e-9), 0.5e-6, 1e-9],
    "non-finite": [np.nan, np.inf, -np.inf],
}


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(OPERATOR_KINDS), dims, sizes, st.sampled_from([None, *ENTRIES]), st.booleans())
def test_each_kind_maps_a_row_and_a_batch_with_the_bits_of_its_formula(seed, kind, dim, n, entries, context):
    # a lone row takes its own numpy form (a 1-d @, the hold test of a row) and must keep the batch's bits
    rng = np.random.default_rng(seed)
    op, g = make_operator(kind, dim, rng)
    if kind == "bellman" and not context:
        op = Bellman(op.transitions, op.rewards, op.discount)
    s = points(g, rng, n)
    if entries is not None:
        hit = rng.random(s.shape) < 0.25
        s[hit] = rng.choice(ENTRIES[entries], np.count_nonzero(hit))
    t = rng.integers(0, 50, n)
    oracle = oracles.APPLY[kind]
    with np.errstate(all="ignore"):
        images = op._apply(s, t)
        assert same_bits(images, oracle(op, s, t))
        for row, ti, image in zip(s, t.tolist(), images):
            assert same_bits(op._apply(row, ti), image)
            assert same_bits(oracle(op, row, ti), image)


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_no_kind_writes_into_its_input(kind):
    rng = np.random.default_rng(3)
    op, g = make_operator(kind, 4, rng)
    s = points(g, rng, 5)
    t = rng.integers(0, 50, 5)
    s.setflags(write=False)
    before = s.copy()
    for x, ti in ((s, t), (s[0], 0)):
        for image in (op._apply(x, ti), op.apply(x, ti)):
            assert image.flags.writeable and not np.shares_memory(image, x)
    assert same_bits(s, before)
    assert same_bits(op.apply(s[0].tolist(), 0), op._apply(s[0], 0))  # apply takes any array-like


def test_exp_gradient_rows_that_hold_at_rho_have_the_bits_of_the_per_call_formula():
    rho = 1e-6
    q = np.array([rho * (1 - 9e-10), np.nextafter(rho, 1.0), 0.5, 0.0])
    q[3] = 1.0 - q[:3].sum()
    for op, g in ((ExpGradientStep([0.5, 0.3, 0.2], 3.0), NegativeEntropy(3, rho)),
                  (ExpGradientStep(q, 0.5), NegativeEntropy(4, rho))):
        rows = np.vstack([op.q, g.sample_point(np.random.default_rng(0), 256)])
        images = op.apply(rows)
        held = (images == rho).any(axis=1)
        assert held.any() and not held.all()
        assert same_bits(images, oracles.exp_gradient_apply(op, rows))
        for row in rows:
            assert same_bits(op.apply(row), oracles.exp_gradient_apply(op, row))


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(2, 24), sizes)
def test_hold_at_rho_and_drift_repair_have_the_bits_of_their_per_call_formulas(seed, dim, n):
    rng = np.random.default_rng(seed)
    rho = 1e-6
    g = NegativeEntropy(dim, rho)
    w = g.sample_point(rng, n)
    w[:, 0] = rng.choice([rho * (1 - 0.5e-6), rho * 0.5, rho, 0.3], n)  # rows below, at and above rho
    w *= 1.0 + rng.choice([0.0, 3e-10, -3e-10, 1e-6], (n, 1))  # and sums drifted off 1, some past repair
    assert same_bits(hold_at_rho(w, rho), oracles.hold_at_rho(w, rho))
    for row in w:
        assert same_bits(hold_at_rho(row, rho), oracles.hold_at_rho(row, rho))
        try:
            want = oracles.negative_entropy_project(g, row)
        except ValueError as exc:
            with pytest.raises(DomainError) as err:
                g._project(row)
            assert str(err.value) == str(exc)
        else:
            assert same_bits(g._project(row), want)


@pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [0.5, np.inf, 0.5], [-np.inf, 0.5, 0.5],
                                 [np.inf, -np.inf, 1.0]])
def test_the_drift_repair_fails_every_non_finite_point(row):
    # inf - inf is nan; the engine steps in a floating-point mode that ignores it
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="simplex drift exceeds repairable"):
        NegativeEntropy(3, 1e-6)._project(np.array(row))


MATRIX_KINDS = [("affine-rotation", 2), *((kind, dim) for kind in ("gradient-step", "bellman") for dim in (1, 2, 24))]


@pytest.mark.parametrize("kind, dim", MATRIX_KINDS)
def test_a_lone_row_of_a_matrix_kind_takes_a_dot_with_the_bits_of_the_stacked_row(kind, dim):
    # a lone row takes A.dot(s), a batch np.matmul(A, S[..., None]); rows over ten decades of magnitude
    rng = np.random.default_rng(dim)
    for _ in range(3):
        op, _ = make_operator(kind, dim, rng)
        s = rng.standard_normal((2000, op.dim)) * 10.0 ** rng.uniform(-5, 5, (2000, 1))
        t = rng.integers(0, 50, 2000)
        images = op._apply(s, t)
        assert same_bits(images, oracles.APPLY[kind](op, s, t))
        for row, ti, image in zip(s, t.tolist(), images):
            assert same_bits(op._apply(row, ti), image)


def test_the_simplex_maps_skip_a_division_by_an_exact_one_with_the_bits_of_their_formulas():
    rho = 1e-6
    g = NegativeEntropy(3, rho)
    exact = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.125, 0.375, 0.5]])
    rows = np.vstack([exact, g.sample_point(np.random.default_rng(5), 300)])
    one = np.add.reduce(rows, axis=1) == 1.0
    assert one.any() and not one.all()
    # the drift repair returns a row that sums to exactly 1.0 as it is, and divides any other
    for row, exactly in zip(rows, one.tolist()):
        got = g._project(row)
        assert same_bits(got, oracles.negative_entropy_project(g, row))
        assert (got is row) == exactly
    assert same_bits(g._project(rows), oracles.negative_entropy_project(g, rows))
    # a lone exp-gradient row skips its second normalization where its first one sums to exactly 1.0
    seen = set()
    for q, step in ((exact[0], 0.5), (exact[1], 1.7), (exact[2], 3.0)):
        op = ExpGradientStep(q, step, rho)
        images = op._apply(rows)
        assert same_bits(images, oracles.exp_gradient_apply(op, rows))
        for row, image in zip(rows, images):
            w = row * np.exp(-op.step * (np.log(row) - np.log(op.q) + 1.0))
            seen.add(bool(np.add.reduce(w / np.add.reduce(w)) == 1.0))
            assert same_bits(op._apply(row), image)
    assert seen == {True, False}


def test_bellman_context_rows_follow_their_step():
    op = Bellman(np.full((2, 1, 2), 0.5), np.zeros((2, 1)), 0.5, context_y=[[1.0], [2.0], [3.0]])
    v = np.zeros((4, 2))
    np.testing.assert_array_equal(op.apply(v, np.array([0, 1, 2, 4])), [[1, 1], [2, 2], [3, 3], [2, 2]])


def test_bellman_rejects_context_off_the_rewards_shape():
    with pytest.raises(ValueError, match="broadcast to the rewards shape"):
        Bellman(np.full((2, 2, 2), 0.5), np.zeros((2, 2)), 0.5, context_y=[[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# validation of a batch


BREAKS = ("nan", "+inf", "-inf", "+-inf", "floor", "sum")


def broken(g, row, how):
    row = row.copy()
    if how == "nan":
        row[0] = np.nan
    elif how == "+inf":
        row[-1] = np.inf
    elif how == "-inf":
        row[0] = -np.inf
    elif how == "+-inf":
        row[0], row[-1] = np.inf, -np.inf
    elif how == "floor":
        row[0] = -0.25
        row[-1] += 0.25
    else:
        row *= 0.9
    return row


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(GEOMETRY_KINDS), st.integers(2, 8), st.integers(2, 30),
       st.lists(st.tuples(st.integers(0, 29), st.sampled_from(BREAKS)), min_size=1, max_size=4))
def test_batch_error_names_the_first_offending_row(seed, kind, dim, n, breaks):
    rng = np.random.default_rng(seed)
    g = make_geometry(kind, dim, rng)
    s = points(g, rng, n)
    for i, how in breaks:
        if i < n and (g.kind == "negative-entropy" or how not in ("floor", "sum")):
            s[i] = broken(g, s[i], how)
    bad = [i for i in range(n) if not _valid(g, s[i])]
    if not bad:
        g.check_point(s)
        return
    first = bad[0]
    with pytest.raises(DomainError) as one:
        g.check_point(s[first], "x")
    with pytest.raises(DomainError) as batch:
        g.check_point(s, "x")
    assert str(batch.value) == str(one.value).replace("x ", f"x[{first}] ", 1)
    assert "np.float64" not in str(batch.value)


def _valid(g, row):
    try:
        g.check_point(row)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("kind", GEOMETRY_KINDS)
def test_empty_batch_is_valid(kind):
    g = make_geometry(kind, 3, np.random.default_rng(0))
    empty = np.empty((0, 3))
    assert g.check_point(empty).shape == (0, 3)
    assert g.divergence(empty, empty).shape == (0,)


def test_check_point_rejects_higher_rank():
    with pytest.raises(DomainError, match=r"1-d vector or a \(B, dim\) batch"):
        SquaredEuclidean(2).check_point(np.zeros((2, 2, 2)))
