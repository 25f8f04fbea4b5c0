"""Joint training loop: Adam updates of the full model under the summed
objective, with a binary checkpoint format that restores training bit-exactly.

Determinism contract: the seed fully determines the run. Three independent
streams are derived from it: parameter init ([seed, 0]), latent noise and
scheduled-sampling coins ([seed, 1], whose state is checkpointed), and the
per-epoch shuffle ([seed, 2, epoch], recomputable on resume). The global step
counter locates the run inside an epoch: epoch = step // num_batches.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ConfigError, TrainingConfig
from .corpus import LengthCaps, Vocabulary, encode_batch
from .model import ModelForward, NewsToReportModel, build_model
from .numerics import FLOAT, NonFiniteLossError, clip_global_norm

CHECKPOINT_MAGIC = b"O2RCKPT1"
CHECKPOINT_VERSION = 1

LOSS_LOG_HEADER = "epoch,step,L_outline,L_report,L_model"

_HEADER_KEYS = ("config", "step", "adam_t", "rng_state", "vocab_sha256", "vocab_size", "arrays")
# Array name prefixes of the two Adam moments; a parameter's array is its bare name.
_MOMENT_PREFIXES = ("adam.m.", "adam.v.")


class CheckpointError(RuntimeError):
    """An unreadable, inconsistent or unsavable checkpoint."""


class AdamOptimizer:
    """Bias-corrected Adam; epsilon added outside the square root."""

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names passed to optimizer")
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        corr1 = 1.0 - self.beta1 ** self.t
        corr2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.value -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.epsilon)


def diagnose_forward(fwd: ModelForward) -> str:
    """Name the first non-finite intermediate, in pipeline order."""
    stages = [
        ("news embeddings", fwd.enc_cache[0].inputs),
        ("encoder states", fwd.outline.attention.enc_states),
        ("outline log-sum-exp", fwd.outline.lse),
        ("outline loss", fwd.outline.loss),
        ("fusion vector", fwd.report.u),
        ("latent mean", fwd.report.latent.mean),
        ("latent logvar", fwd.report.latent.logvar),
        ("latent sample", fwd.report.latent.z),
        ("KL term", fwd.report.kl_rows),
        ("report log-sum-exp", fwd.report.lse),
        ("report loss", fwd.report.loss),
    ]
    for name, value in stages:
        if not np.all(np.isfinite(value)):
            return f"first non-finite intermediate: {name}"
    return "loss non-finite but all cached intermediates finite"


@dataclass
class StepRecord:
    epoch: int
    step: int
    loss_outline: float
    loss_report: float
    loss_model: float

    def csv_row(self) -> str:
        # repr keeps float round-trips exact, so two identical runs diff clean
        return (f"{self.epoch},{self.step},{self.loss_outline!r},"
                f"{self.loss_report!r},{self.loss_model!r}")


# -- checkpoint serialization --------------------------------------------------


@dataclass
class CheckpointState:
    config: TrainingConfig
    step: int
    adam_t: int
    rng_state: dict
    vocab_sha256: str
    vocab_size: int
    arrays: dict = field(repr=False)


def save_checkpoint(path, model: NewsToReportModel, optimizer: AdamOptimizer,
                    step: int, noise_rng, vocab_sha256: str) -> None:
    params = model.parameters()
    entries = []
    blobs = []
    offset = 0

    def add(name, array):
        nonlocal offset
        a = np.ascontiguousarray(_finite(name, array), dtype="<f8")
        entries.append({"name": name, "shape": list(a.shape),
                        "offset": offset, "nbytes": a.nbytes})
        blobs.append(a.tobytes())
        offset += a.nbytes

    for p in params:
        add(p.name, p.value)
    for prefix, store in zip(_MOMENT_PREFIXES, (optimizer.m, optimizer.v)):
        for p in params:
            add(prefix + p.name, store[p.name])
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.cfg),
        "step": step,
        "adam_t": optimizer.t,
        "rng_state": noise_rng.bit_generator.state,
        "vocab_sha256": vocab_sha256,
        "vocab_size": model.vocab_size,
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> CheckpointState:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError(f"{path}: file shorter than fixed header")
    if data[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad header (magic bytes do not match)")
    (header_len,) = struct.unpack("<Q", data[8:16])
    header_end = 16 + header_len
    if len(data) < header_end:
        raise CheckpointError(f"{path}: truncated JSON header")
    try:
        header = json.loads(data[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unparseable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r}, expected {CHECKPOINT_VERSION}")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing or not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: header lacks {', '.join(missing) or 'a list of arrays'}")
    for key in ("step", "adam_t", "vocab_size"):
        if not (type(header[key]) is int and header[key] >= 0):
            raise CheckpointError(f"{path}: {key} must be a non-negative int, got {header[key]!r}")
    if not isinstance(header["vocab_sha256"], str):
        raise CheckpointError(f"{path}: vocab_sha256 must be a string, "
                              f"got {header['vocab_sha256']!r}")
    try:
        config = TrainingConfig(**header["config"])
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: config does not fit TrainingConfig: {exc}") from None
    payload = data[header_end:]
    arrays = dict(_read_array(path, payload, entry) for entry in header["arrays"])
    return CheckpointState(
        config=config, step=header["step"], adam_t=header["adam_t"],
        rng_state=header["rng_state"], vocab_sha256=header["vocab_sha256"],
        vocab_size=header["vocab_size"], arrays=arrays)


def _read_array(path, payload, entry):
    """(name, array) for one manifest entry, checked against the payload."""
    try:
        name, shape, lo, nbytes = (entry[key] for key in ("name", "shape", "offset", "nbytes"))
        sizes = [lo, nbytes, *shape]
    except (KeyError, TypeError):
        raise CheckpointError(f"{path}: malformed array entry {entry!r}") from None
    if not all(isinstance(v, int) and v >= 0 for v in sizes) or nbytes != 8 * math.prod(shape):
        raise CheckpointError(f"{path}: array {name!r}: offset {lo!r}, nbytes {nbytes!r} "
                              f"do not fit shape {shape!r}")
    if lo + nbytes > len(payload):
        raise CheckpointError(f"{path}: array {name!r} extends past end of file")
    return name, np.frombuffer(payload[lo:lo + nbytes], dtype="<f8").reshape(shape).astype(FLOAT)


def _saved_array(state: CheckpointState, name: str, shape) -> np.ndarray:
    """The checkpoint's array `name`, which must exist at `shape`, finite."""
    if name not in state.arrays:
        raise CheckpointError(f"checkpoint missing array {name!r}")
    if state.arrays[name].shape != shape:
        raise CheckpointError(f"array {name!r} has shape {state.arrays[name].shape}, "
                              f"model expects {shape}")
    return _finite(name, state.arrays[name])


def _finite(name: str, array) -> np.ndarray:
    """array, which must hold only finite values, as a checkpoint does."""
    if not np.isfinite(array).all():
        raise CheckpointError(f"array {name!r} holds non-finite values")
    return array


# -- the loop ------------------------------------------------------------------


class Trainer:
    """Deterministic epoch/batch loop over encoded pairs."""

    def __init__(self, model: NewsToReportModel, pairs, vocab: Vocabulary,
                 cfg: TrainingConfig):
        if not pairs:
            raise ValueError("no training pairs")
        for pair in pairs:
            if pair.outline is None:
                raise ValueError(f"pair {pair.id!r} has no outline; derive outlines first")
        self.model = model
        self.pairs = list(pairs)
        self.vocab = vocab
        self.cfg = cfg
        self.caps = LengthCaps(news=cfg.max_news_len, outline=cfg.max_outline_len,
                               report=cfg.max_report_len)
        self.num_batches = math.ceil(len(self.pairs) / cfg.batch_size)
        self.optimizer = AdamOptimizer(
            model.parameters(), learning_rate=cfg.learning_rate,
            beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, epsilon=cfg.adam_epsilon)
        self.noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        self.step = 0
        self.history: list[StepRecord] = []

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([self.cfg.seed, 2, epoch]))
        return rng.permutation(len(self.pairs))

    def _batch_at(self, epoch: int, batch_idx: int):
        order = self._epoch_order(epoch)
        lo = batch_idx * self.cfg.batch_size
        chunk = [self.pairs[i] for i in order[lo:lo + self.cfg.batch_size]]
        return encode_batch(chunk, self.vocab, self.caps)

    @np.errstate(over="ignore", invalid="ignore")  # its own checks name the fault
    def train_one_step(self) -> StepRecord:
        epoch = self.step // self.num_batches
        batch = self._batch_at(epoch, self.step % self.num_batches)
        beta = self.cfg.kl_weight(self.step)
        self.model.zero_grad()
        noise = self.noise_rng.standard_normal((batch.size, self.cfg.d_z))
        fwd = self.model.forward(batch, noise, beta, sample_rng=self.noise_rng)
        if not math.isfinite(fwd.loss_model):
            raise NonFiniteLossError(
                f"step {self.step}: loss is not finite; {diagnose_forward(fwd)}")
        self.model.backward(fwd)
        if self.cfg.freeze_outline:
            # zero gradients add nothing to the clip norm and keep Adam's
            # moments at 0, so the frozen parameters move by exactly 0.0
            for p in self.model.outline_decoder.parameters():
                p.zero_grad()
        params = self.model.parameters()
        norm = clip_global_norm(params, self.cfg.gradient_clip_norm)
        if not math.isfinite(norm):
            bad = next((p.name for p in params if not np.isfinite(p.grad).all()), None)
            cause = (f"first non-finite gradient: {bad}" if bad is not None
                     else "every gradient finite, so their sum of squares overflowed")
            raise NonFiniteLossError(f"step {self.step}: gradient norm is {norm!r} ({cause}); "
                                     f"parameters left unchanged")
        self.optimizer.step()
        record = StepRecord(epoch, self.step, fwd.outline.loss, fwd.report.loss, fwd.loss_model)
        self.history.append(record)
        self.step += 1
        return record

    def run(self, max_epochs: int | None = None, on_step=None, on_epoch_end=None):
        """Train until the epoch limit; callbacks see each step and epoch end."""
        limit = self.cfg.max_epochs if max_epochs is None else max_epochs
        total = limit * self.num_batches
        while self.step < total:
            record = self.train_one_step()
            if on_step is not None:
                on_step(record)
            if self.step % self.num_batches == 0 and on_epoch_end is not None:
                on_epoch_end(record.epoch)
        return self.history

    def save(self, path) -> None:
        save_checkpoint(path, self.model, self.optimizer, self.step,
                        self.noise_rng, self.vocab.digest())


def restore_model(state: CheckpointState, vocab: Vocabulary) -> NewsToReportModel:
    """Model with parameters loaded from a checkpoint saved for `vocab`; the
    one check and copy of a checkpoint's parameters."""
    if state.vocab_sha256 != vocab.digest():
        raise CheckpointError(
            f"vocabulary digest mismatch (checkpoint {state.vocab_sha256[:12]}..., "
            f"supplied {vocab.digest()[:12]}...)")
    if state.vocab_size != len(vocab):
        raise CheckpointError(
            f"checkpoint built for vocabulary of {state.vocab_size}, got {len(vocab)}")
    model = build_model(vocab, state.config)
    for p in model.parameters():
        p.value[...] = _saved_array(state, p.name, p.value.shape)
    return model


def resume_trainer(state: CheckpointState, pairs, vocab: Vocabulary) -> Trainer:
    """Trainer continuing bit-exactly from a loaded checkpoint: the restored
    model plus what training adds, the Adam moments, noise state and step."""
    trainer = Trainer(restore_model(state, vocab), pairs, vocab, state.config)
    opt = trainer.optimizer
    for prefix, store in zip(_MOMENT_PREFIXES, (opt.m, opt.v)):
        for p in opt.params:
            store[p.name][...] = _saved_array(state, prefix + p.name, p.value.shape)
    try:
        trainer.noise_rng.bit_generator.state = state.rng_state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"rng_state does not fit the noise generator: {exc!r}") from None
    opt.t = state.adam_t
    trainer.step = state.step
    return trainer
