"""Small dense regressors built on the MLP kernels in `kernels`.

A regressor holds the networks of a committee's members along one
leading axis: each member is two tanh hidden layers with a linear head,
trained on its own by mini-batch Adam on mean-squared error. The batch
schedule is materialized up front as an index array, so the sample
sequence is fixed by the seed alone.
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
    """A committee's networks: six weight arrays with a leading member axis.

    Weights are (M, fan_in, fan_out) and biases (M, 1, fan_out), so one
    ``predict`` serves every member and returns (M, n, n_out).
    ``member(m)`` gives member m's six arrays as views, (fan_in, fan_out)
    weights and (fan_out,) biases; ``train`` updates them in place.

    The weights are float64. ``predict`` forwards a float32 copy of them,
    built on its first call and dropped by ``train``, and returns a
    float32 result: the committee mean only has to meet a 1e-2
    normalized-MSE gate, far above float32 rounding.
    """

    def __init__(self, weights):
        self.weights = weights
        self._forward_weights = None

    @classmethod
    def stacked(cls, members):
        """One network from per-member weight lists of equal shapes."""
        return cls([
            np.stack(arrays).reshape(len(members), -1, arrays[0].shape[-1])
            for arrays in zip(*members)
        ])

    @classmethod
    def initialized(cls, n_in, hidden, n_out, rngs):
        """He-initialized members, one per generator."""
        h1, h2 = hidden
        return cls.stacked([he_init([n_in, h1, h2, n_out], rng) for rng in rngs])

    @property
    def n_members(self):
        return self.weights[0].shape[0]

    def member(self, m):
        w1, b1, w2, b2, w3, b3 = self.weights
        return [w1[m], b1[m, 0], w2[m], b2[m, 0], w3[m], b3[m, 0]]

    def train(self, m, x, y, schedule, learning_rate):
        self._forward_weights = None
        kernels.mlp_train(x, y, self.member(m), schedule, learning_rate)

    def predict(self, x):
        if self._forward_weights is None:
            self._forward_weights = [w.astype(np.float32) for w in self.weights]
        return kernels.mlp_forward(x, self._forward_weights)

    @property
    def sizes(self):
        return [self.weights[0].shape[1]] + [w.shape[2] for w in self.weights[::2]]

    def to_dict(self):
        """Per-member documents, each the member's six arrays flattened."""
        return [
            {"weights": [w.ravel().tolist() for w in self.member(m)]}
            for m in range(self.n_members)
        ]

    @classmethod
    def from_dict(cls, docs, sizes):
        shapes = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            shapes.extend([(fan_in, fan_out), (fan_out,)])
        return cls.stacked([
            [np.array(flat, dtype=np.float64).reshape(shape)
             for flat, shape in zip(doc["weights"], shapes)]
            for doc in docs
        ])
