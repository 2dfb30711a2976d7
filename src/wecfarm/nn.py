"""Small dense regressors built on the MLP kernels in `kernels`.

A regressor is two tanh hidden layers with a linear head, trained by
mini-batch Adam on mean-squared error. The batch schedule is
materialized up front as an index array, so the sample sequence is
fixed by the seed alone.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

SCALE_FLOOR = 1e-12


@dataclass
class AffineScaler:
    """Per-column shift and scale."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, data):
        data = np.asarray(data, dtype=np.float64)
        return cls(data.mean(axis=0), np.maximum(data.std(axis=0), SCALE_FLOOR))

    def transform(self, x):
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.scale

    def to_dict(self):
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, doc):
        return cls(np.array(doc["mean"], dtype=np.float64), np.array(doc["scale"], dtype=np.float64))


def he_init(sizes, rng):
    """Weight list [w1, b1, w2, b2, w3, b3] for the fixed 2-hidden-layer shape."""
    if len(sizes) != 4:
        raise ValueError("regressors use exactly two hidden layers")
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        weights.append(np.zeros(fan_out))
    return weights


def epoch_schedule(n, batch, epochs, rng):
    """Shuffled fixed-width batch indices, one row per gradient step.

    Each epoch is a fresh permutation cut into full batches; a ragged
    tail smaller than the batch is dropped. Datasets smaller than the
    batch width train full-batch.
    """
    width = min(batch, n)
    rows = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n - width + 1, width):
            rows.append(perm[start : start + width])
    return np.stack(rows)


class Regressor:
    """Weights plus train/predict plumbing.

    A committee member holds six arrays: (fan_in, fan_out) weights and
    (fan_out,) biases. A member block (see ``member_block``) holds the
    same six with a leading member axis, and its ``predict`` returns
    (M, n, n_out).
    """

    def __init__(self, weights):
        self.weights = weights

    @classmethod
    def initialized(cls, n_in, hidden, n_out, rng):
        h1, h2 = hidden
        return cls(he_init([n_in, h1, h2, n_out], rng))

    def train(self, x, y, schedule, learning_rate):
        kernels.mlp_train(x, y, self.weights, schedule, learning_rate)

    def predict(self, x):
        return kernels.mlp_forward(np.asarray(x, dtype=np.float64), self.weights)

    @property
    def sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights[::2]]

    def to_dict(self):
        return {"weights": [w.ravel().tolist() for w in self.weights]}

    @classmethod
    def from_dict(cls, doc, sizes):
        shapes = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            shapes.extend([(fan_in, fan_out), (fan_out,)])
        weights = [
            np.array(flat, dtype=np.float64).reshape(shape)
            for flat, shape in zip(doc["weights"], shapes)
        ]
        return cls(weights)


def member_block(members):
    """One Regressor over the members' leading axis; the members become its views.

    Weights stack to (M, fan_in, fan_out) and biases to (M, 1, fan_out),
    so one forward serves every member. Each member's arrays are then
    rebound to views of the block: training a member in place trains the
    block, and no weight array exists twice.
    """
    block = Regressor([
        np.stack([member.weights[i] for member in members]).reshape(len(members), -1, w.shape[-1])
        for i, w in enumerate(members[0].weights)
    ])
    for m, member in enumerate(members):
        member.weights = [b[m].reshape(w.shape) for b, w in zip(block.weights, member.weights)]
    return block
