"""Dense float64 numerics shared by every model component.

Activations, the four-gate LSTM cell with its hand-derived backward pass, a
masked sequence runner for variable-length batches, and the central
finite-difference gradient oracle used to verify every analytic gradient.

All arrays are 64-bit floats; verification against finite differences at
epsilon = 1e-5 needs the extra precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FLOAT = np.float64


class NonFiniteLossError(RuntimeError):
    pass


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def log_softmax(x, axis=-1):
    """Row-wise log-probabilities; never computes log of a softmax output."""
    x = np.asarray(x, dtype=FLOAT)
    m = np.max(x, axis=axis, keepdims=True)
    shifted = x - m
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


def masked_row_softmax(scores, mask):
    """Softmax over the last axis with masked entries receiving exactly 0.

    scores: [..., T] float; mask: [..., T] bool. Raises if any row is fully
    masked (there is nothing to normalize over).
    """
    scores = np.asarray(scores, dtype=FLOAT)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("softmax over fully masked row: all positions masked")
    neg = np.where(mask, scores, -np.inf)
    m = np.max(neg, axis=-1, keepdims=True)
    e = np.exp(neg - m)  # exp(-inf) == 0 exactly
    return e / e.sum(axis=-1, keepdims=True)


def uniform_init(rng, shape, fan_in=None):
    """uniform(-r, r) with r = 1/sqrt(fan_in); fan_in defaults to the last dim."""
    fan = shape[-1] if fan_in is None else fan_in
    r = 1.0 / math.sqrt(fan)
    return rng.uniform(-r, r, size=shape).astype(FLOAT)


@dataclass
class Parameter:
    """A named trainable array paired with its gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=FLOAT)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


class LSTMCell:
    """Batched LSTM cell owning fused gate parameters (order: i, f, o, g)."""

    def __init__(self, name, d_in, d_hid, rng, forget_bias=1.0):
        self.d_in = d_in
        self.d_hid = d_hid
        self.W_x = Parameter(f"{name}.W_x", uniform_init(rng, (4 * d_hid, d_in)))
        self.W_h = Parameter(f"{name}.W_h", uniform_init(rng, (4 * d_hid, d_hid)))
        b = np.zeros(4 * d_hid, dtype=FLOAT)
        b[d_hid:2 * d_hid] = forget_bias  # forget gate starts open
        self.b = Parameter(f"{name}.b", b)

    def parameters(self):
        return [self.W_x, self.W_h, self.b]

    def step(self, x, h_prev, c_prev):
        """x [B,d_in], h_prev/c_prev [B,d_hid] -> (h, c, cache). Stacks of
        rows [n,1,*] step too, each row as one [1,*] product."""
        if x.shape[-1] != self.d_in or h_prev.shape[-1] != self.d_hid:
            raise ValueError(
                f"LSTM step dims: x {x.shape} (want *,{self.d_in}), h {h_prev.shape} (want *,{self.d_hid})")
        H = self.d_hid
        a = x @ self.W_x.value.T + h_prev @ self.W_h.value.T + self.b.value
        i = sigmoid(a[..., :H])
        f = sigmoid(a[..., H:2 * H])
        o = sigmoid(a[..., 2 * H:3 * H])
        g = np.tanh(a[..., 3 * H:])
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        cache = (x, h_prev, c_prev, i, f, o, g, c)
        return h, c, cache

    def step_backward(self, cache, dh, dc):
        """Backward through one step; accumulates weight grads, returns
        (dx, dh_prev, dc_prev)."""
        x, h_prev, c_prev, i, f, o, g, c = cache
        tc = np.tanh(c)
        do = dh * tc
        dc_tot = dc + dh * o * (1.0 - tc * tc)
        di = dc_tot * g
        df = dc_tot * c_prev
        dg = dc_tot * i
        dc_prev = dc_tot * f
        da = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g * g)],
            axis=1)
        self.W_x.grad += da.T @ x
        self.W_h.grad += da.T @ h_prev
        self.b.grad += da.sum(axis=0)
        dx = da @ self.W_x.value
        dh_prev = da @ self.W_h.value
        return dx, dh_prev, dc_prev


@dataclass
class LSTMRunCache:
    step_caches: list
    fmask: np.ndarray  # [B, T] float 0/1
    reverse: bool


def run_lstm(cell: LSTMCell, X, mask, reverse=False, h0=None, c0=None):
    """Run a cell along the time axis of X [B,T,D] with carry-through masking.

    At masked steps the state is carried unchanged, so padding never leaks
    into a shorter row's states. H[:, t] holds the state after step t; the
    returned final state is the state at each row's last valid position
    (forward) or first position (reverse).
    """
    X = np.asarray(X, dtype=FLOAT)
    B, T, _ = X.shape
    if T == 0:
        raise ValueError("run_lstm over an empty sequence")
    fmask = np.asarray(mask, dtype=FLOAT).reshape(B, T)
    h = np.zeros((B, cell.d_hid), dtype=FLOAT) if h0 is None else h0
    c = np.zeros((B, cell.d_hid), dtype=FLOAT) if c0 is None else c0
    H = np.zeros((B, T, cell.d_hid), dtype=FLOAT)
    steps = [None] * T
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        m = fmask[:, t:t + 1]
        h_new, c_new, cache = cell.step(X[:, t], h, c)
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        H[:, t] = h
        steps[t] = cache
    return H, (h, c), LSTMRunCache(steps, fmask, reverse)


def scheduled_inputs(cell: LSTMCell, embed, gold_in_ids, mask, h0, c0, head, rng, ratio):
    """Scheduled-sampling inputs (Bengio et al., arXiv 1506.03099): after the
    first, each is the gold token with probability `ratio`, else the argmax of
    `head(state)` at the previous step, with one coin per row and step."""
    input_ids = gold_in_ids.copy()
    h, c = h0, c0
    for t in range(input_ids.shape[1]):
        if t > 0:
            use_model = rng.random(len(input_ids)) >= ratio
            input_ids[:, t] = np.where(use_model, np.argmax(head(h), axis=1), gold_in_ids[:, t])
        _, (h, c), _ = run_lstm(cell, embed(input_ids[:, t:t + 1]), mask[:, t:t + 1], h0=h, c0=c)
    return input_ids


def run_lstm_backward(cell: LSTMCell, run_cache: LSTMRunCache, dH, dh_fin=None, dc_fin=None):
    """Backward through run_lstm. dH carries per-position state grads; returns
    (dX, dh0, dc0) and accumulates the cell's weight grads."""
    fmask = run_cache.fmask
    B, T = fmask.shape
    dh = np.zeros((B, cell.d_hid), dtype=FLOAT) if dh_fin is None else dh_fin.copy()
    dc = np.zeros((B, cell.d_hid), dtype=FLOAT) if dc_fin is None else dc_fin.copy()
    dX = np.zeros((B, T, cell.d_in), dtype=FLOAT)
    order = range(T - 1, -1, -1) if run_cache.reverse else range(T)
    for t in reversed(order):
        m = fmask[:, t:t + 1]
        dh_tot = dh + dH[:, t]
        dc_tot = dc
        dx, dh_prev, dc_prev = cell.step_backward(run_cache.step_caches[t], m * dh_tot, m * dc_tot)
        dh = (1.0 - m) * dh_tot + dh_prev
        dc = (1.0 - m) * dc_tot + dc_prev
        dX[:, t] = dx
    return dX, dh, dc


def finite_difference_gradient(loss_fn, params, epsilon=1e-5):
    """Central-difference gradient estimate, one coordinate at a time.

    loss_fn is a zero-argument callable returning the scalar loss at the
    current parameter values; params is an iterable of Parameter. Values are
    perturbed in place and restored exactly.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    grads = {}
    for p in params:
        g = np.zeros(p.value.size, dtype=FLOAT)
        flat = p.value.flat
        for idx in range(p.value.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            lp = float(loss_fn())
            flat[idx] = orig - epsilon
            lm = float(loss_fn())
            flat[idx] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NonFiniteLossError(f"non-finite loss while probing {p.name}[{idx}]")
            g[idx] = (lp - lm) / (2.0 * epsilon)
        grads[p.name] = g.reshape(p.value.shape)
    return grads


@dataclass
class BlockCheck:
    name: str
    rel_error: float
    analytic_norm: float
    numeric_norm: float
    passed: bool


@dataclass
class GradientCheckReport:
    tol: float
    blocks: list

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.blocks)

    @property
    def worst(self) -> float:
        return max((b.rel_error for b in self.blocks), default=0.0)

    def format_table(self) -> str:
        width = max((len(b.name) for b in self.blocks), default=4)
        lines = [f"{'block':<{width}}  {'rel_error':>12}  {'|analytic|':>12}  {'|numeric|':>12}  status"]
        for b in self.blocks:
            status = "pass" if b.passed else "FAIL"
            lines.append(
                f"{b.name:<{width}}  {b.rel_error:>12.3e}  {b.analytic_norm:>12.3e}  "
                f"{b.numeric_norm:>12.3e}  {status}")
        return "\n".join(lines)


def gradient_check(analytic, numeric, tol=1e-4):
    """Compare per-block gradients: rel = |a - n| / max(|a| + |n|, 1e-12)."""
    names = list(analytic.keys())
    if set(names) != set(numeric.keys()):
        raise ValueError("analytic and numeric gradient sets name different blocks")
    blocks = []
    for name in names:
        a = np.asarray(analytic[name], dtype=FLOAT)
        n = np.asarray(numeric[name], dtype=FLOAT)
        if a.shape != n.shape:
            raise ValueError(f"{name}: shape mismatch {a.shape} vs {n.shape}")
        na = float(np.linalg.norm(a))
        nn = float(np.linalg.norm(n))
        rel = float(np.linalg.norm(a - n) / max(na + nn, 1e-12))
        blocks.append(BlockCheck(name, rel, na, nn, rel <= tol))
    return GradientCheckReport(tol=tol, blocks=blocks)


def clip_global_norm(params, max_norm):
    """Scale all gradients jointly so the global norm is at most max_norm;
    returns the norm before clipping. A non-finite norm scales nothing."""
    total = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    if math.inf > total > max_norm > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
