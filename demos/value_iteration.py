"""Bellman backups on a two-state chain, plain versus averaged.

State 0 pays 1 for staying put and 0 for hopping to state 1; state 1 pays
2 for staying. With discount 0.9 the optimal values are exactly (18, 20).

The backup operator contracts in the sup norm, but the engine measures
contraction in the squared-euclidean divergence, and along the direction
(1, 1) the optimal backup is an isometry that the discount barely damps.
The measured divergence ratio comes out above 1, the engine warns that
its hypothesis fails, and the averaged schedule converges much slower
than plain iteration here. Both facts are printed as found.
"""

import numpy as np

from bregiter import Bellman, SquaredEuclidean, estimate_contraction, from_dict, run, fit_rate

transitions = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
rewards = [[1.0, 0.0], [0.0, 2.0]]
discount = 0.9

op = Bellman(np.array(transitions), np.array(rewards), discount)
v_star = op.fixed_point()
print("optimal values:", v_star)

# plain value iteration: gamma^t convergence in sup norm
v = np.zeros(2)
for t in range(400):
    v = op.apply(v)
print("plain iteration after 400 backups, sup error: %.3e" % np.max(np.abs(v - v_star)))

g = SquaredEuclidean(2)
ratio = estimate_contraction(op, g, n_pairs=256)
print("measured divergence ratio under squared-euclidean: %.3f" % ratio)
print("(> 1, so the averaged-iteration bounds do not apply to this pairing)")

cfg = from_dict({
    "geometry": {"kind": "squared-euclidean", "dim": 2},
    "operator": {"kind": "bellman", "params": {
        "transitions": transitions, "rewards": rewards, "discount": discount}},
    "schedule": {"kind": "accelerated"},
    "perturbation": {"mode": "zero"},
    "s0": [0.0, 0.0],
    "iterations": 100000,
    "seed": 1,
    "retain_states": False,
})
trace = run(cfg)
print("warnings:", trace.warnings)
fit = fit_rate(trace, window=(10000, 100000))
print("averaged engine: e_T = %.3e after %d steps, tail slope %.3f"
      % (trace.e[-1], cfg.iterations, fit.slope))
print("plain backups win on this instance; the engine reports why instead of hiding it")
