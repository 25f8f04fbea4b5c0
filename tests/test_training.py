import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outline2report.config import ConfigError, DecodeConfig, TrainingConfig
from outline2report.corpus import (
    NewsReportPair, build_vocabulary, derive_outlines)
from outline2report.model import build_model
from outline2report import training
from outline2report.numerics import NonFiniteLossError, Parameter, clip_global_norm
from outline2report.training import (
    CHECKPOINT_MAGIC, LOSS_LOG_HEADER, AdamOptimizer, CheckpointError,
    StepRecord, Trainer, load_checkpoint, restore_model, resume_trainer)

from model_oracles import joint_loss


def micro_corpus():
    rows = [
        ("1", "rain hit the coast", "the coast saw heavy rain overnight"),
        ("2", "crops grew fast", "farmers say crops grew fast this year"),
        ("3", "the port opened", "ships entered the port after repairs"),
        ("4", "prices rose again", "traders watched prices rose again today"),
    ]
    pairs = [NewsReportPair(id=i, news=tuple(n.split()), report=tuple(r.split()))
             for i, n, r in rows]
    pairs = derive_outlines(pairs, k=3)
    return pairs, build_vocabulary(pairs)


def micro_cfg(**kw):
    base = dict(d_emb=6, d_hid=5, d_z=3, batch_size=2, max_epochs=2,
                seed=1, kl_anneal_steps=10)
    base.update(kw)
    return TrainingConfig(**base)


def make_trainer(**kw):
    pairs, vocab = micro_corpus()
    cfg = micro_cfg(**kw)
    return Trainer(build_model(vocab, cfg), pairs, vocab, cfg), pairs, vocab


def traced_peak(fn):
    """(fn(), the most bytes traced during the call above those traced before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestJointLoss:
    def test_plain_sum(self):
        assert joint_loss(2.0, 3.0) == 5.0

    def test_zero(self):
        assert joint_loss(0.0, 0.0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteLossError):
            joint_loss(float("nan"), 1.0)
        with pytest.raises(NonFiniteLossError):
            joint_loss(1.0, float("inf"))


class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter("w", np.array([2.0]))
        p.zero_grad()
        p.grad[:] = 0.5
        opt = AdamOptimizer([p], learning_rate=0.1)
        opt.step()
        # bias correction makes m_hat = g, v_hat = g^2 at t = 1
        expected = 2.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert abs(p.value[0] - expected) < 1e-15
        assert abs((2.0 - p.value[0]) - 0.1) < 1e-6  # ~ lr * sign(g)

    def test_zero_gradient_no_change(self):
        p = Parameter("w", np.array([1.5, -2.0]))
        p.zero_grad()
        opt = AdamOptimizer([p], learning_rate=0.1)
        opt.step()
        np.testing.assert_array_equal(p.value, [1.5, -2.0])

    def test_three_step_trace(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Parameter("w", np.array([0.0]))
        opt = AdamOptimizer([p], learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        # hand-rolled recurrence, same constants
        m = v = 0.0
        x = 0.0
        for t in range(1, 4):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            x -= lr * m_hat / (math.sqrt(v_hat) + eps)

            p.zero_grad()
            p.grad[:] = 1.0
            opt.step()
        assert abs(p.value[0] - x) < 1e-15

    def test_zero_learning_rate_freezes(self):
        p = Parameter("w", np.array([3.0]))
        p.zero_grad()
        p.grad[:] = 1.0
        AdamOptimizer([p], learning_rate=0.0).step()
        assert p.value[0] == 3.0

    def test_duplicate_names_rejected(self):
        a = Parameter("w", np.zeros(1))
        b = Parameter("w", np.zeros(1))
        with pytest.raises(ValueError):
            AdamOptimizer([a, b])


class TestKlAnneal:
    def test_linear_ramp(self):
        cfg = micro_cfg(kl_anneal_steps=500)
        assert cfg.kl_weight(0) == 0.0
        assert cfg.kl_weight(250) == 0.5
        assert cfg.kl_weight(500) == 1.0
        assert cfg.kl_weight(10 ** 6) == 1.0

    def test_zero_anneal_steps_means_full_weight(self):
        cfg = micro_cfg(kl_anneal_steps=0)
        assert cfg.kl_weight(0) == 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            micro_cfg(learning_rate=0.0)
        with pytest.raises(ConfigError):
            micro_cfg(batch_size=0)
        with pytest.raises(ConfigError):
            micro_cfg(teacher_forcing_ratio=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["learning_rate", "gradient_clip_norm", "adam_epsilon",
                                      "outline_loss_weight"])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            micro_cfg(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("d_hid", 8.5), ("seed", 0.5), ("seed", True), ("batch_size", "2"),
        ("learning_rate", "0.1"), ("outline_loss_weight", False), ("freeze_outline", 1),
        ("max_outline_len", 1), ("max_report_len", 1),  # no room for BOS and EOS
        ("checkpoint_every_epochs", -1),
    ])
    def test_values_that_do_not_fit_name_the_key(self, name, value):
        with pytest.raises(ConfigError, match=name):
            micro_cfg(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("beam_width", 2.5), ("beam_width", 0), ("strategy", 3),
        ("max_outline_len", 0), ("max_report_len", 0), ("temperature", "1"),
        ("record_attention", 1),
    ])
    def test_decode_values_that_do_not_fit_name_the_key(self, name, value):
        with pytest.raises(ConfigError, match=name):
            DecodeConfig(**{name: value})

    def test_decode_length_caps_of_one_are_accepted(self):
        # decoding emits at least one token; BOS is fed, never emitted
        dcfg = DecodeConfig(max_outline_len=1, max_report_len=1, temperature=2)
        assert (dcfg.max_outline_len, dcfg.max_report_len) == (1, 1)

    def test_ints_are_accepted_as_floats(self):
        assert micro_cfg(learning_rate=1, max_outline_len=2).learning_rate == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_temperature_rejected(self, value):
        with pytest.raises(ConfigError, match="temperature"):
            DecodeConfig(temperature=value)


class TestTrainingLoop:
    def test_loss_trace_deterministic(self):
        t1, _, _ = make_trainer()
        t2, _, _ = make_trainer()
        r1 = t1.run()
        r2 = t2.run()
        assert [r.loss_model for r in r1] == [r.loss_model for r in r2]
        assert len(r1) == 2 * t1.num_batches

    def test_additivity_every_step(self):
        trainer, _, _ = make_trainer()
        for rec in trainer.run():
            assert rec.loss_model == rec.loss_outline + rec.loss_report

    def test_weighted_additivity(self):
        trainer, _, _ = make_trainer(outline_loss_weight=0.5)
        for rec in trainer.run():
            assert rec.loss_model == 0.5 * rec.loss_outline + rec.loss_report

    def test_descent_on_overfittable_corpus(self):
        trainer, _, _ = make_trainer(batch_size=4, max_epochs=200,
                                     kl_anneal_steps=50)
        records = trainer.run()
        assert len(records) == 200
        assert records[-1].loss_model < records[0].loss_model

    def test_every_block_gets_gradient_in_first_epoch(self):
        trainer, _, _ = make_trainer()
        seen = {p.name: False for p in trainer.model.parameters()}
        for _ in range(trainer.num_batches):
            trainer.train_one_step()
            for p in trainer.model.parameters():
                seen[p.name] = seen[p.name] or bool(p.grad.any())
        missing = [name for name, hit in seen.items() if not hit]
        assert not missing, f"dead parameter blocks: {missing}"

    def test_pad_embedding_row_stays_zero(self):
        trainer, _, _ = make_trainer()
        trainer.run()
        assert not trainer.model.embedding.table.value[0].any()
        assert not trainer.model.embedding.table.grad[0].any()

    def test_freeze_outline_pins_outline_params(self):
        trainer, _, _ = make_trainer(freeze_outline=True)
        model = trainer.model
        before = {p.name: p.value.copy() for p in model.parameters()}
        trainer.run(max_epochs=1)
        for p in model.outline_decoder.parameters():
            np.testing.assert_array_equal(p.value, before[p.name])
        others = ([model.embedding.table] + model.encoder.parameters()
                  + model.report_decoder.parameters())
        moved = [p.name for p in others if not np.array_equal(p.value, before[p.name])]
        assert moved

    def test_frozen_run_checkpoints_zero_outline_moments(self, tmp_path):
        # frozen gradients are zero, so Adam's moments of the outline stay 0
        trainer, _, _ = make_trainer(freeze_outline=True)
        trainer.run(max_epochs=1)
        trainer.save(tmp_path / "ck.o2r")
        arrays = load_checkpoint(tmp_path / "ck.o2r").arrays
        frozen = [n for n in arrays if n.startswith(("adam.m.outline.", "adam.v.outline."))]
        assert len(frozen) == 2 * len(trainer.model.outline_decoder.parameters())
        for name in frozen:
            assert not arrays[name].any(), name
        assert arrays["adam.m.report.out.W"].any() and arrays["adam.v.report.out.W"].any()

    def _clip_calls(self, monkeypatch):
        calls = []

        def spy(params, max_norm):
            grads = {p.name: p.grad.copy() for p in params}
            calls.append((params, grads, clip_global_norm(params, max_norm)))
            return calls[-1][2]

        monkeypatch.setattr(training, "clip_global_norm", spy)
        return calls

    def test_freeze_outline_keeps_frozen_grads_out_of_the_clip(self, monkeypatch):
        trainer, _, _ = make_trainer(freeze_outline=True, gradient_clip_norm=1e-3)
        calls = self._clip_calls(monkeypatch)
        outline = {p.name for p in trainer.model.outline_decoder.parameters()}
        trainer.train_one_step()
        (_, grads, norm), = calls
        others = [g for name, g in grads.items() if name not in outline]
        squares = 0.0   # added left to right, as the clip adds them
        for g in others:
            squares += float(np.sum(g * g))
        assert norm == math.sqrt(squares)
        assert norm > 1e-3  # the clip binds
        for p in trainer.model.parameters():
            if p.name in outline:
                assert not p.grad.any()
            else:
                np.testing.assert_array_equal(p.grad, grads[p.name] * (1e-3 / norm))

    def test_unfrozen_training_clips_every_parameter(self, monkeypatch):
        trainer, _, _ = make_trainer(gradient_clip_norm=1e-3)
        calls = self._clip_calls(monkeypatch)
        trainer.train_one_step()
        (params, _, _), = calls
        assert [p.name for p in params] == [p.name for p in trainer.model.parameters()]

    def test_non_finite_loss_names_first_bad_stage(self):
        trainer, _, _ = make_trainer()
        trainer.model.embedding.table.value[5:] = np.nan
        with pytest.raises(NonFiniteLossError, match="news embeddings"):
            trainer.train_one_step()

    def test_non_finite_encoder_names_encoder_states(self):
        trainer, _, _ = make_trainer()
        trainer.model.encoder.fwd.b.value[0] = np.nan
        with pytest.raises(NonFiniteLossError, match="encoder states"):
            trainer.train_one_step()

    def test_non_finite_deep_in_pipeline(self):
        trainer, _, _ = make_trainer()
        trainer.model.report_decoder.W_out.value[:] = np.nan
        with pytest.raises(NonFiniteLossError, match="report"):
            trainer.train_one_step()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_outline_projection_names_the_outline(self):
        trainer, _, _ = make_trainer()
        trainer.model.outline_decoder.W_o.value[3, 0] = np.inf
        with pytest.raises(NonFiniteLossError, match="outline loss gradient"):
            trainer.train_one_step()

    def _plant_in_backward(self, monkeypatch, model, plant):
        """Run `plant` after every backward pass of `model`."""
        backward = model.backward

        def planted(fwd):
            backward(fwd)
            plant()

        monkeypatch.setattr(model, "backward", planted)

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        trainer, _, _ = make_trainer()
        trainer.train_one_step()  # so the Adam moments are not all zero
        model, opt = trainer.model, trainer.optimizer

        def plant():
            model.report_decoder.W_out.grad[0, 0] = np.inf

        self._plant_in_backward(monkeypatch, model, plant)
        values = {p.name: p.value.copy() for p in model.parameters()}
        moments = {name: (opt.m[name].copy(), opt.v[name].copy()) for name in values}
        with pytest.raises(NonFiniteLossError, match="gradient norm") as err:
            trainer.train_one_step()
        assert "first non-finite gradient: report.out.W" in str(err.value)
        assert "parameters left unchanged" in str(err.value)
        for p in model.parameters():
            np.testing.assert_array_equal(p.value, values[p.name])
            np.testing.assert_array_equal(opt.m[p.name], moments[p.name][0])
            np.testing.assert_array_equal(opt.v[p.name], moments[p.name][1])
        assert opt.t == 1 and trainer.step == 1

    def test_non_finite_gradient_names_the_earliest_block(self, monkeypatch):
        trainer, _, _ = make_trainer()
        model = trainer.model
        first, later = model.encoder.parameters()[0], model.report_decoder.W_out

        def plant():
            later.grad[0, 0] = np.inf
            first.grad.flat[1] = np.nan

        self._plant_in_backward(monkeypatch, model, plant)
        names = [p.name for p in model.parameters()]
        assert names.index(first.name) < names.index(later.name)
        with pytest.raises(NonFiniteLossError, match="step 0: gradient norm is nan") as err:
            trainer.train_one_step()
        assert (f"(first non-finite gradient: {first.name}); parameters left unchanged"
                in str(err.value))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_norm_says_so(self, monkeypatch):
        trainer, _, _ = make_trainer()
        model = trainer.model

        def plant():
            for p in model.parameters():
                p.grad[...] = 1e200

        self._plant_in_backward(monkeypatch, model, plant)
        with pytest.raises(NonFiniteLossError, match="gradient norm is inf") as err:
            trainer.train_one_step()
        assert ("(every gradient finite, so their sum of squares overflowed); "
                "parameters left unchanged" in str(err.value))
        assert all(np.isfinite(p.grad).all() for p in model.parameters())
        assert trainer.optimizer.t == 0 and trainer.step == 0

    def test_epoch_reshuffles_but_stays_seeded(self):
        trainer, _, _ = make_trainer()
        o0 = trainer._epoch_order(0)
        o1 = trainer._epoch_order(1)
        assert sorted(o0.tolist()) == sorted(o1.tolist()) == [0, 1, 2, 3]
        again, _, _ = make_trainer()
        np.testing.assert_array_equal(again._epoch_order(0), o0)
        np.testing.assert_array_equal(again._epoch_order(1), o1)


class TestStepRecord:
    def test_csv_round_trip(self):
        rec = StepRecord(3, 17, 1.25, 2.5, 3.75)
        fields = rec.csv_row().split(",")
        assert len(fields) == len(LOSS_LOG_HEADER.split(","))
        assert int(fields[0]) == 3 and int(fields[1]) == 17
        assert float(fields[2]) == 1.25
        assert float(fields[4]) == 3.75

    def test_header_names(self):
        assert LOSS_LOG_HEADER == "epoch,step,L_outline,L_report,L_model"


class TestCheckpointing:
    def test_round_trip_bit_exact(self, tmp_path):
        trainer, pairs, vocab = make_trainer()
        trainer.run(max_epochs=1)
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        assert path.read_bytes()[:8] == CHECKPOINT_MAGIC

        state = load_checkpoint(path)
        assert state.step == trainer.step
        assert state.adam_t == trainer.optimizer.t
        assert state.vocab_sha256 == vocab.digest()
        for p in trainer.model.parameters():
            np.testing.assert_array_equal(state.arrays[p.name], p.value)
            np.testing.assert_array_equal(state.arrays["adam.m." + p.name],
                                          trainer.optimizer.m[p.name])

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        straight, _, _ = make_trainer(max_epochs=3)
        full = straight.run()

        partial, pairs, vocab = make_trainer(max_epochs=3)
        for _ in range(3):
            partial.train_one_step()
        path = tmp_path / "mid.o2r"
        partial.save(path)

        resumed = resume_trainer(load_checkpoint(path), pairs, vocab)
        assert resumed.step == 3
        tail = []
        while resumed.step < len(full):
            tail.append(resumed.train_one_step())
        for rec, ref in zip(tail, full[3:]):
            assert rec.loss_model == ref.loss_model
            assert rec.loss_outline == ref.loss_outline
            assert rec.loss_report == ref.loss_report

    def test_restored_model_parameters_identical(self, tmp_path):
        trainer, pairs, vocab = make_trainer()
        trainer.run(max_epochs=1)
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        model = restore_model(load_checkpoint(path), vocab)
        for p, q in zip(model.parameters(), trainer.model.parameters()):
            assert p.name == q.name
            np.testing.assert_array_equal(p.value, q.value)

    # Allocation bounds, in bytes as tracemalloc counts them (numpy reports
    # its buffers to it). The JSON header is the one thing a save or load
    # encodes or parses object by object; JSON-encoding its 7 KiB alone
    # peaks near 62 KiB, so each bound allows that step's own cost.
    def _wide_checkpoint(self, tmp_path):
        """(trainer, path, payload bytes, header) of a 1.1 MiB checkpoint."""
        trainer, _, _ = make_trainer(d_emb=32, d_hid=32, d_z=8)
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = path.read_bytes()
        end = 16 + struct.unpack("<Q", blob[8:16])[0]
        return trainer, path, len(blob) - end, blob[16:end]

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        _, path, payload, header = self._wide_checkpoint(tmp_path)
        assert payload > 1 << 20
        _, parsing = traced_peak(lambda: json.loads(header.decode("utf-8")))
        state, peak = traced_peak(lambda: load_checkpoint(path))
        assert peak <= payload + len(header) + parsing + (64 << 10), (peak, payload)
        assert state.arrays

    def test_save_copies_no_array(self, tmp_path):
        trainer, path, payload, header = self._wide_checkpoint(tmp_path)
        before = path.read_bytes()
        _, encoding = traced_peak(
            lambda: json.dumps(json.loads(header), sort_keys=True).encode("utf-8"))
        _, peak = traced_peak(lambda: trainer.save(path))
        assert peak <= encoding + (64 << 10), (peak, payload)
        assert path.read_bytes() == before

    def test_loaded_arrays_are_views_of_the_file(self, tmp_path):
        _, path, _, _ = self._wide_checkpoint(tmp_path)
        state = load_checkpoint(path)
        assert not any(a.flags.owndata for a in state.arrays.values())

    def test_corrupt_magic(self, tmp_path):
        trainer, _, _ = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad header"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        trainer, _, _ = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = path.read_bytes()
        assert b'"version": 1' in blob
        path.write_bytes(blob.replace(b'"version": 1', b'"version": 9', 1))
        with pytest.raises(CheckpointError, match="checkpoint version 9, expected 1"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        trainer, _, _ = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 64])
        with pytest.raises(CheckpointError, match="extends past end of file"):
            load_checkpoint(path)

    def _saved_with(self, tmp_path, old, new):
        """(path, pairs, vocab) of a micro checkpoint with `old` replaced by
        `new`, of the same length, once in its header."""
        trainer, pairs, vocab = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = path.read_bytes()
        assert blob.count(old) == 1 and len(new) == len(old)
        path.write_bytes(blob.replace(old, new))
        return path, pairs, vocab

    def test_shape_mismatch_on_restore_and_resume(self, tmp_path):
        path, pairs, vocab = self._saved_with(tmp_path, b'"d_hid": 5', b'"d_hid": 4')
        with pytest.raises(CheckpointError, match="model expects"):
            restore_model(load_checkpoint(path), vocab)
        with pytest.raises(CheckpointError, match="model expects"):
            resume_trainer(load_checkpoint(path), pairs, vocab)

    @pytest.mark.parametrize("name", ["embedding.table", "encoder.fwd.W_h", "report.recog.W_mu"])
    def test_saved_shape_is_checked_before_the_model_is_built(self, tmp_path, monkeypatch, name):
        # the saved array's shape reversed, its size and the header's config
        # unchanged: the one check that names it runs before build_model
        trainer, _, vocab = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = path.read_bytes()
        end = 16 + struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16:end])
        shape = next(e for e in header["arrays"] if e["name"] == name)["shape"]
        assert shape[0] != shape[1]
        shape.reverse()
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[end:])

        def build_model_too_early(*args):
            raise AssertionError("build_model ran before the saved shapes were checked")

        monkeypatch.setattr(training, "build_model", build_model_too_early)
        with pytest.raises(CheckpointError, match=f"array '{name}' has shape"):
            restore_model(load_checkpoint(path), vocab)

    def test_missing_moment_fails_resume_only(self, tmp_path):
        # generation reads only the parameters; training also needs the moments
        path, pairs, vocab = self._saved_with(
            tmp_path, b'"adam.v.report.out.W"', b'"adam.v.report.out.X"')
        restore_model(load_checkpoint(path), vocab)
        with pytest.raises(CheckpointError,
                           match="checkpoint missing array 'adam.v.report.out.W'"):
            resume_trainer(load_checkpoint(path), pairs, vocab)

    def _saved_with_value(self, tmp_path, name, value):
        """(path, pairs, vocab) of a micro checkpoint whose array `name` holds
        `value` in its first element, planted in the saved bytes."""
        trainer, pairs, vocab = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = path.read_bytes()
        end = 16 + struct.unpack("<Q", blob[8:16])[0]
        entry = next(e for e in json.loads(blob[16:end])["arrays"] if e["name"] == name)
        at = end + entry["offset"]
        path.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8:])
        return path, pairs, vocab

    @pytest.mark.parametrize("name,array,value", [
        ("report.out.W", lambda t: t.model.report_decoder.W_out.value, np.inf),
        ("adam.v.report.out.W", lambda t: t.optimizer.v["report.out.W"], np.nan),
    ], ids=["parameter", "moment"])
    def test_save_refuses_non_finite_and_leaves_the_file(self, tmp_path, name, array, value):
        trainer, _, _ = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        before = path.read_bytes()
        array(trainer)[0, 0] = value
        with pytest.raises(CheckpointError, match=f"array {name!r} holds non-finite values"):
            trainer.save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.o2r"]

    def test_non_finite_moment_fails_resume_only(self, tmp_path):
        path, pairs, vocab = self._saved_with_value(tmp_path, "adam.v.report.out.W", math.nan)
        restore_model(load_checkpoint(path), vocab)
        with pytest.raises(CheckpointError,
                           match="array 'adam.v.report.out.W' holds non-finite values"):
            resume_trainer(load_checkpoint(path), pairs, vocab)

    def test_non_finite_parameter_fails_restore_and_resume(self, tmp_path):
        path, pairs, vocab = self._saved_with_value(tmp_path, "report.out.W", math.inf)
        with pytest.raises(CheckpointError, match="array 'report.out.W' holds non-finite"):
            restore_model(load_checkpoint(path), vocab)
        with pytest.raises(CheckpointError, match="array 'report.out.W' holds non-finite"):
            resume_trainer(load_checkpoint(path), pairs, vocab)

    def test_vocab_digest_mismatch(self, tmp_path):
        trainer, pairs, _ = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        stranger = build_vocabulary(derive_outlines([
            NewsReportPair(id="x", news=("other", "words"),
                           report=("entirely", "different", "text"))], k=1))
        with pytest.raises(CheckpointError, match="digest"):
            resume_trainer(load_checkpoint(path), pairs, stranger)
        with pytest.raises(CheckpointError, match="digest"):
            restore_model(load_checkpoint(path), stranger)

    def test_header_is_sorted_json(self, tmp_path):
        trainer, _, _ = make_trainer()
        path = tmp_path / "ck.o2r"
        trainer.save(path)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
        assert header["version"] == 1
        assert list(header) == sorted(header)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(scratch path, bytes, pairs, vocabulary) of a one-step micro checkpoint."""
    trainer, pairs, vocab = make_trainer()
    trainer.train_one_step()
    path = tmp_path_factory.mktemp("fuzz") / "ck.o2r"
    trainer.save(path)
    return path, path.read_bytes(), pairs, vocab


def load_both_ways(path, pairs, vocab):
    restore_model(load_checkpoint(path), vocab)
    resume_trainer(load_checkpoint(path), pairs, vocab)


class TestCheckpointFuzz:
    """Damaged checkpoints end in CheckpointError, never in another exception."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated(self, saved_checkpoint, data):
        path, blob, pairs, vocab = saved_checkpoint
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(CheckpointError):
            restore_model(load_checkpoint(path), vocab)
        with pytest.raises(CheckpointError):
            resume_trainer(load_checkpoint(path), pairs, vocab)

    @pytest.mark.parametrize("old, new", [
        (b'"teacher_forcing_ratio": 1.0', b'"teacher_forcing_ratio": 9.0'),  # ConfigError
        (b'"seed": 1,', b'"seed":-1,'),                  # a seed no generator takes
        (b'"uinteger"', b'"uintegex"'),                  # KeyError in the rng state
        (b'"PCG64"', b'"PCG65"'),                        # ValueError
        (b'"has_uint32": 0', b'"has_uint32":""'),        # TypeError
        (b'"step": 1, ', b'"step":"a",'),                # not an int
        (b'"step": 1, ', b'"step":1.5,'),
        (b'"adam_t": 1, ', b'"adam_t":"x",'),
        (b'"vocab_size": 30}', b'"vocab_size": -3}'),    # negative
        (b'"d_hid": 5, ', b'"d_hid":8.5,'),              # config field types
        (b'"seed": 1, ', b'"seed":0.5,'),
        (b'"freeze_outline": false', b'"freeze_outline":     0'),
    ])
    def test_header_values_that_do_not_fit(self, saved_checkpoint, old, new):
        path, blob, pairs, vocab = saved_checkpoint
        assert blob.count(old) == 1 and len(new) == len(old)
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(CheckpointError):
            load_both_ways(path, pairs, vocab)

    def test_nan_in_header_config(self, saved_checkpoint):
        path, blob, _, _ = saved_checkpoint
        old, new = b'"gradient_clip_norm": 5.0', b'"gradient_clip_norm": NaN'
        assert blob.count(old) == 1 and len(new) == len(old)
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(CheckpointError, match="gradient_clip_norm"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_mutated(self, saved_checkpoint, data):
        path, blob, pairs, vocab = saved_checkpoint
        header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
        # half the draws land in the magic, length and JSON header, where a
        # byte changes more than one array value
        pos = data.draw(st.one_of(st.integers(0, header_end - 1),
                                  st.integers(0, len(blob) - 1)))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
        path.write_bytes(blob[:pos] + bytes([byte]) + blob[pos + 1:])
        try:
            load_both_ways(path, pairs, vocab)
        except CheckpointError:
            pass
