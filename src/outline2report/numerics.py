"""Dense float64 numerics shared by every model component.

Activations, the affine backward, the four-gate LSTM cell with its backward
pass, a masked sequence runner for variable-length batches, and the central
finite-difference gradient oracle used to verify every analytic gradient.

All arrays are 64-bit floats; verification against finite differences at
epsilon = 1e-5 needs the extra precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS, PAD

FLOAT = np.float64


class NonFiniteLossError(RuntimeError):
    pass


def log_softmax(x):
    """Log-probabilities over the last axis; never computes log of a softmax output."""
    shifted = x - x.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def mask_unemittable(x):
    """The emission rule, in place on scores x [..., V]: no decoder emits PAD or BOS."""
    x[..., PAD] = -math.inf
    x[..., BOS] = -math.inf
    return x


def masked_row_softmax(scores, mask):
    """Softmax over the last axis with masked entries receiving exactly 0.

    scores: [..., T] float; mask: [..., T] bool. Raises if any row is fully
    masked (there is nothing to normalize over).
    """
    if not mask.any(axis=-1).all():
        raise ValueError("softmax over fully masked row: all positions masked")
    neg = np.where(mask, scores, -np.inf)
    e = np.exp(neg - neg.max(axis=-1, keepdims=True))  # exp(-inf) == 0 exactly
    return e / e.sum(axis=-1, keepdims=True)


def uniform_init(rng, shape):
    """uniform(-r, r) with r = 1/sqrt(fan_in), fan_in the last dim."""
    r = 1.0 / math.sqrt(shape[-1])
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


def affine_backward(x, d, W: Parameter, b: Parameter):
    """Backward through y = x @ Wᵀ + b given d = dL/dy: accumulates W's and
    b's grads, returns dL/dx."""
    W.grad += d.T @ x
    b.grad += d.sum(axis=0)
    return d @ W.value


class LSTMCell:
    """Batched LSTM cell owning fused gate parameters (order: i, f, o, g)."""

    def __init__(self, name, d_in, d_hid, rng):
        self.d_in = d_in
        self.d_hid = d_hid
        self.W_x = Parameter(f"{name}.W_x", uniform_init(rng, (4 * d_hid, d_in)))
        self.W_h = Parameter(f"{name}.W_h", uniform_init(rng, (4 * d_hid, d_hid)))
        b = np.zeros(4 * d_hid, dtype=FLOAT)
        b[d_hid:2 * d_hid] = 1.0  # forget gate starts open
        self.b = Parameter(f"{name}.b", b)

    def parameters(self):
        return [self.W_x, self.W_h, self.b]

    def input_gates(self, x):
        """x [..., d_in] -> x @ W_xᵀ + b [..., 4H], the gates' input side."""
        a = x @ self.W_x.value.T
        a += self.b.value
        return a

    def step(self, x_gates, h_prev, c_prev, W_hT):
        """x_gates = input_gates(x) [B,4H], h_prev/c_prev [B,d_hid], W_hT = W_hᵀ
        -> (h, c, cache). Stacks of rows [n,1,*] step too, each row as one
        [1,*] product."""
        a = h_prev @ W_hT
        a += x_gates
        H = self.d_hid
        s = np.negative(a[..., :3 * H])  # sigmoid of i, f, o; a copy beats in place on a view
        np.reciprocal(np.add(np.exp(s, out=s), 1.0, out=s), out=s)
        g = np.tanh(a[..., 3 * H:])
        c = s[..., H:2 * H] * c_prev
        c += s[..., :H] * g
        tc = np.tanh(c)
        h = s[..., 2 * H:] * tc
        return h, c, (c_prev, s, g, tc)

    def step_backward(self, cache, dh, dc, da):
        """Backward through one step's gates: writes the pre-activation grad
        into da [B,4H]; returns (dh_prev, dc_prev). No weight grads or dx.
        The sigmoid block s = (i, f, o) takes its derivative s(1 - s) at once."""
        c_prev, s, g, tc = cache
        H = self.d_hid
        dc_tot = dh * s[:, 2 * H:]
        dc_tot *= 1.0 - tc * tc
        dc_tot += dc
        np.multiply(dc_tot, g, out=da[:, :H])
        np.multiply(dc_tot, c_prev, out=da[:, H:2 * H])
        np.multiply(dh, tc, out=da[:, 2 * H:3 * H])
        da[:, :3 * H] *= s
        da[:, :3 * H] *= 1.0 - s
        dg = np.multiply(dc_tot, s[:, :H], out=da[:, 3 * H:])
        dg *= 1.0 - g * g
        return da @ self.W_h.value, dc_tot * s[:, H:2 * H]


@dataclass
class LSTMRunCache:
    step_caches: list
    mask: np.ndarray    # [B, T] bool
    reverse: bool
    inputs: np.ndarray  # [T, B, d_in], time-major
    h_prev: np.ndarray  # [T, B, d_hid], the state each step read


def run_lstm(cell: LSTMCell, X, mask, reverse=False, h0=None, feed=None):
    """Run a cell along the time axis of X [B,T,D] with carry-through masking,
    from h0 (zeros if None) and a zero cell state: (H [B,T,d_hid], cache).

    At masked steps the state is carried unchanged (np.where on the mask, the
    one carry rule of every masked recurrence here), so padding never leaks
    into a shorter row's states. H[:, t] holds the state after step t, so the
    final state is H[:, -1] (forward) or H[:, 0] (reverse). X @ W_xᵀ + b is one
    time-major GEMM; H is a view of a [T+1,B,H] buffer that also holds each
    h_prev. Given feed(t, h), each step t > 0 reads the row [B,D] that feed
    forms from h, the state after step t - 1, in place of X[:, t].
    """
    B, T, D = X.shape
    if T == 0 or D != cell.d_in:
        raise ValueError(f"run_lstm over inputs {X.shape}: empty, or not {cell.d_in} wide")
    h = np.zeros((B, cell.d_hid), dtype=FLOAT) if h0 is None else h0
    c = np.zeros((B, cell.d_hid), dtype=FLOAT)
    inputs = X.transpose(1, 0, 2)  # kept as is if contiguous; a feed writes into a copy
    inputs = inputs.copy() if feed is not None else np.ascontiguousarray(inputs)
    x_gates = cell.input_gates(inputs.reshape(T * B, D)).reshape(T, B, -1)
    W_hT = np.ascontiguousarray(cell.W_h.value.T)
    held = np.empty((T + 1, B, cell.d_hid), dtype=FLOAT)
    held[T if reverse else 0] = h
    states, h_prev = (held[:T], held[1:]) if reverse else (held[1:], held[:T])
    steps = [None] * T
    order = range(T - 1, -1, -1) if reverse else range(T)
    full = mask.all(axis=0)  # on these columns no row is carried
    for t in order:
        if feed is not None and t > 0:
            inputs[t] = feed(t, h)
            x_gates[t] = cell.input_gates(inputs[t])
        h_new, c_new, steps[t] = cell.step(x_gates[t], h, c, W_hT)
        if not full[t]:
            m = mask[:, t:t + 1]
            h_new, c_new = np.where(m, h_new, h), np.where(m, c_new, c)
        h, c = h_new, c_new
        states[t] = h
    return states.transpose(1, 0, 2), LSTMRunCache(steps, mask, reverse, inputs, h_prev)


def scheduled_inputs(embed, gold_in_ids, head, rng, ratio):
    """Scheduled sampling (Bengio et al., arXiv 1506.03099) as a run_lstm feed:
    after the first, each input is the gold token with probability `ratio`,
    else the argmax of mask_unemittable(head(h)) on the state before it, a token
    decoding can emit; one coin per row and step. Returns (input_ids, feed), feed
    writing its picks into input_ids; at ratio >= 1, (gold_in_ids, None), no draws."""
    if ratio >= 1.0:
        return gold_in_ids, None
    input_ids = gold_in_ids.copy()

    def feed(t, h):
        use_model = rng.random(len(input_ids)) >= ratio
        picked = np.argmax(mask_unemittable(head(h)), axis=1)
        input_ids[:, t] = np.where(use_model, picked, gold_in_ids[:, t])
        return embed(input_ids[:, t])

    return input_ids, feed


def run_lstm_backward(cell: LSTMCell, run_cache: LSTMRunCache, dH):
    """Backward through run_lstm. dH carries per-position state grads (a grad
    on the final state belongs in dH at that position); returns (dX, dh0) and
    accumulates the cell's weight grads, each as one GEMM over all T*B rows
    after the steps."""
    mask = run_cache.mask
    B, T = mask.shape
    dh = dc = np.zeros((B, cell.d_hid), dtype=FLOAT)  # neither is written in place
    da = np.empty((T, B, 4 * cell.d_hid), dtype=FLOAT)
    order = range(T - 1, -1, -1) if run_cache.reverse else range(T)
    full = mask.all(axis=0)
    for t in reversed(order):
        dh_tot = dh + dH[:, t]
        if full[t]:
            dh, dc = cell.step_backward(run_cache.step_caches[t], dh_tot, dc, da[t])
            continue
        # a carried row took no step: it gets no gate gradient and passes its own on
        m = mask[:, t:t + 1]
        dh_prev, dc_prev = cell.step_backward(
            run_cache.step_caches[t], np.where(m, dh_tot, 0.0), np.where(m, dc, 0.0), da[t])
        dh, dc = np.where(m, dh_prev, dh_tot), np.where(m, dc_prev, dc)
    da = da.reshape(T * B, -1)
    cell.W_x.grad += (run_cache.inputs.reshape(T * B, -1).T @ da).T  # BLAS runs x.T @ da faster
    cell.W_h.grad += (run_cache.h_prev.reshape(T * B, -1).T @ da).T
    cell.b.grad += da.sum(axis=0)
    return (da @ cell.W_x.value).reshape(T, B, -1).transpose(1, 0, 2), dh


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss raises, naming the probe
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
        a, n = analytic[name], numeric[name]
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
