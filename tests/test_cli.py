"""End-to-end checks of the command line: each subcommand run in process."""

import argparse
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outline2report
from outline2report.cli import build_parser, main
from outline2report.config import known_keys

DATASET = [
    {"id": "p1", "news": "storms flood the coast today",
     "report": "heavy storms flood the coast and swamp homes near the shore"},
    {"id": "p2", "news": "markets rally after the vote",
     "report": "markets rally sharply after the vote lifts bank shares"},
    {"id": "p3", "news": "drought hits the wheat belt",
     "report": "a long drought hits the wheat belt and cuts the harvest"},
    {"id": "p4", "news": "the port reopens to ships",
     "report": "the port reopens to ships after crews clear the channel"},
]

TINY = [
    "--set", "training.d_emb=6",
    "--set", "training.d_hid=5",
    "--set", "training.d_z=3",
    "--set", "training.batch_size=2",
    "--set", "training.kl_anneal_steps=10",
    "--set", "training.seed=1",
]


def write_dataset(path, records=DATASET):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


@pytest.fixture()
def dataset(tmp_path):
    return write_dataset(tmp_path / "ds.jsonl")


def distinct_tokens(records):
    seen = set()
    for rec in records:
        seen.update(rec["news"].split())
        seen.update(rec["report"].split())
    return seen


class TestBuildVocab:
    def test_writes_vocab_and_stats(self, dataset, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--dataset", str(dataset), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == len(distinct_tokens(DATASET)) + 4
        stdout = capsys.readouterr().out
        assert "vocabulary size:" in stdout
        assert f"wrote {out}" in stdout

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["build-vocab", "--dataset", str(dataset), "--out", str(a)]) == 0
        assert main(["build-vocab", "--dataset", str(dataset), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_min_freq_filter_shrinks_vocab(self, dataset, tmp_path):
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--dataset", str(dataset),
                     "--out", str(out), "--min-freq", "2"]) == 0
        kept = len(out.read_text().splitlines()) - 4
        assert 0 < kept < len(distinct_tokens(DATASET))

    def test_impossible_min_freq_fails(self, dataset, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        code = main(["build-vocab", "--dataset", str(dataset),
                     "--out", str(out), "--min-freq", "99"])
        assert code == 1
        assert "empty vocabulary" in capsys.readouterr().err

    def test_malformed_dataset_names_the_line(self, tmp_path, capsys):
        ds = tmp_path / "bad.jsonl"
        ds.write_text('{"id": "a", "news": "x", "report": "y"}\n{oops\n')
        code = main(["build-vocab", "--dataset", str(ds),
                     "--out", str(tmp_path / "v.txt")])
        assert code == 1
        assert f"{ds}:2" in capsys.readouterr().err


def run_train(dataset, vocab, out_dir, *extra):
    return main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                 "--out", str(out_dir), *TINY, *extra])


@pytest.fixture()
def vocab(dataset, tmp_path):
    path = tmp_path / "vocab.txt"
    assert main(["build-vocab", "--dataset", str(dataset), "--out", str(path)]) == 0
    return path


class TestTrain:
    def test_writes_checkpoint_and_log(self, dataset, vocab, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(dataset, vocab, out, "--epochs", "2") == 0
        assert (out / "checkpoint.o2r").exists()
        log = (out / "loss_log.csv").read_text().splitlines()
        assert log[0] == "epoch,step,L_outline,L_report,L_model"
        # 4 pairs / batch 2 = 2 steps per epoch
        assert len(log) == 1 + 4
        assert "trained 4 steps" in capsys.readouterr().out

    def test_same_seed_same_log(self, dataset, vocab, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(dataset, vocab, a, "--epochs", "2") == 0
        assert run_train(dataset, vocab, b, "--epochs", "2") == 0
        assert (a / "loss_log.csv").read_bytes() == (b / "loss_log.csv").read_bytes()

    def test_zero_epochs_writes_initial_checkpoint(self, dataset, vocab, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(dataset, vocab, out, "--epochs", "0") == 0
        assert (out / "checkpoint.o2r").exists()
        assert (out / "loss_log.csv").read_text().splitlines() == [
            "epoch,step,L_outline,L_report,L_model"]
        assert "no training steps requested" in capsys.readouterr().out

    def test_resume_completes_the_same_trace(self, dataset, vocab, tmp_path):
        full, split = tmp_path / "full", tmp_path / "split"
        assert run_train(dataset, vocab, full, "--epochs", "3") == 0
        assert run_train(dataset, vocab, split, "--epochs", "1") == 0
        assert run_train(dataset, vocab, split, "--epochs", "3",
                         "--resume", str(split / "checkpoint.o2r")) == 0
        assert ((full / "loss_log.csv").read_bytes()
                == (split / "loss_log.csv").read_bytes())
        assert ((full / "checkpoint.o2r").read_bytes()
                == (split / "checkpoint.o2r").read_bytes())

    @pytest.mark.parametrize("epoch", [1, 2])
    def test_resume_from_a_periodic_checkpoint(self, dataset, vocab, tmp_path, epoch):
        # the split run's log already holds every step: the resumed run cuts
        # it back to the checkpoint's step before it appends
        every = ("--set", "training.checkpoint_every_epochs=1")
        full, split = tmp_path / "full", tmp_path / "split"
        assert run_train(dataset, vocab, full, "--epochs", "3", *every) == 0
        assert run_train(dataset, vocab, split, "--epochs", "3", *every) == 0
        (split / "checkpoint.o2r").unlink()
        assert run_train(dataset, vocab, split, "--epochs", "3", *every, "--resume",
                         str(split / f"checkpoint_epoch{epoch:04d}.o2r")) == 0
        for name in ("loss_log.csv", "checkpoint.o2r"):
            assert (full / name).read_bytes() == (split / name).read_bytes(), name

    def test_resume_into_a_fresh_directory_writes_the_header(self, dataset, vocab, tmp_path):
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_train(dataset, vocab, out, "--epochs", "1") == 0
        assert run_train(dataset, vocab, fresh, "--epochs", "2",
                         "--resume", str(out / "checkpoint.o2r")) == 0
        log = (fresh / "loss_log.csv").read_text().splitlines()
        assert log[0] == "epoch,step,L_outline,L_report,L_model"
        assert [row.split(",")[1] for row in log[1:]] == ["2", "3"]

    @pytest.mark.parametrize("edit,fragment", [
        (lambda rows: ["step,epoch"] + rows[1:], "first line is not the loss log header"),
        (lambda rows: rows + ["1,two,0.5,0.5,1.0"], "not a loss log row"),
        (lambda rows: rows[:1] + rows[2:], "rows below step 2 are not steps 0 to 1 in order"),
    ], ids=["header", "row", "gap"])
    def test_resume_onto_a_malformed_log(self, dataset, vocab, tmp_path, capsys,
                                         edit, fragment):
        out = tmp_path / "run"
        assert run_train(dataset, vocab, out, "--epochs", "1") == 0
        log = out / "loss_log.csv"
        log.write_text("".join(row + "\n" for row in edit(log.read_text().splitlines())))
        before = log.read_bytes()
        capsys.readouterr()
        assert run_train(dataset, vocab, out, "--epochs", "2",
                         "--resume", str(out / "checkpoint.o2r")) == 1
        assert_one_line_error(capsys, fragment)
        assert log.read_bytes() == before

    def test_bare_resume_takes_the_checkpoint_settings(self, dataset, vocab, tmp_path):
        settings = ("--set", "training.outline_k=2", "--set", "training.max_epochs=3")
        full, split = tmp_path / "full", tmp_path / "split"
        assert run_train(dataset, vocab, full, *settings) == 0
        assert run_train(dataset, vocab, split, *settings, "--epochs", "1") == 0
        assert main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                     "--out", str(split), "--resume", str(split / "checkpoint.o2r")]) == 0
        for name in ("loss_log.csv", "checkpoint.o2r"):
            assert (full / name).read_bytes() == (split / name).read_bytes(), name

    def test_resume_accepts_the_config_it_was_started_with(self, dataset, vocab, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{item}\n" for item in TINY[1::2])
                       + "training.max_epochs = 3\ntraining.learning_rate = 0.001\n")
        full, split = tmp_path / "full", tmp_path / "split"
        assert main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                     "--out", str(full), "--config", str(cfg)]) == 0
        assert main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                     "--out", str(split), "--config", str(cfg), "--epochs", "1"]) == 0
        assert main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                     "--out", str(split), "--config", str(cfg),
                     "--resume", str(split / "checkpoint.o2r")]) == 0
        for name in ("loss_log.csv", "checkpoint.o2r"):
            assert (full / name).read_bytes() == (split / name).read_bytes(), name

    @pytest.mark.parametrize("source", ["--set", "--config"])
    def test_resume_rejects_training_settings(self, dataset, vocab, tmp_path, capsys, source):
        out = tmp_path / "run"
        assert run_train(dataset, vocab, out, "--epochs", "1") == 0
        before = {name: (out / name).read_bytes() for name in ("loss_log.csv", "checkpoint.o2r")}
        capsys.readouterr()
        # training.seed=1 matches the checkpoint and is not named
        items = ["training.max_epochs=4", "training.seed=1", "training.learning_rate=5"]
        if source == "--set":
            extra = [arg for item in items for arg in ("--set", item)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{item}\n" for item in items))
            extra = ["--config", str(cfg)]
        code = main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                     "--out", str(out), "--epochs", "2", *extra,
                     "--resume", str(out / "checkpoint.o2r")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --resume takes training.* from the checkpoint; "
            "training.learning_rate, training.max_epochs differ from it\n")
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name

    def test_periodic_checkpoints(self, dataset, vocab, tmp_path):
        out = tmp_path / "run"
        assert run_train(dataset, vocab, out, "--epochs", "2",
                         "--set", "training.checkpoint_every_epochs=1") == 0
        assert (out / "checkpoint_epoch0001.o2r").exists()
        assert (out / "checkpoint_epoch0002.o2r").exists()

    def test_unknown_config_key_fails(self, dataset, vocab, tmp_path, capsys):
        code = run_train(dataset, vocab, tmp_path / "run",
                         "--set", "training.learning_pace=3")
        assert code == 1
        assert "training.learning_pace" in capsys.readouterr().err

    def test_bad_config_value_names_the_key(self, dataset, vocab, tmp_path, capsys):
        code = run_train(dataset, vocab, tmp_path / "run",
                         "--set", "training.learning_rate=0")
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["max_outline_len", "max_report_len"])
    def test_decoder_length_cap_of_one_fails(self, dataset, vocab, tmp_path, capsys, key):
        # a decoder row needs room for BOS and EOS
        code = run_train(dataset, vocab, tmp_path / "run", "--set", f"training.{key}=1")
        assert code == 1
        assert_one_line_error(capsys, f"{key} must be >= 2")

    def test_non_finite_config_value_fails(self, dataset, vocab, tmp_path, capsys):
        code = run_train(dataset, vocab, tmp_path / "run",
                         "--set", "training.gradient_clip_norm=nan")
        assert code == 1
        assert_one_line_error(capsys, "gradient_clip_norm")

    def test_config_file_sets_values(self, dataset, vocab, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# two tiny epochs\ntraining.max_epochs = 1\n")
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                     "--out", str(out), "--config", str(cfg), *TINY[2:]]) == 0
        log = (out / "loss_log.csv").read_text().splitlines()
        assert len(log) == 1 + 2

    def test_empty_dataset_fails(self, vocab, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run_train(empty, vocab, tmp_path / "run")
        assert code == 1
        assert "no training pairs" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One trained run shared by the generate and evaluate tests."""
    root = tmp_path_factory.mktemp("trained")
    dataset = write_dataset(root / "ds.jsonl")
    vocab = root / "vocab.txt"
    assert main(["build-vocab", "--dataset", str(dataset), "--out", str(vocab)]) == 0
    out = root / "run"
    assert run_train(dataset, vocab, out, "--epochs", "2") == 0
    return {"dataset": dataset, "vocab": vocab,
            "checkpoint": out / "checkpoint.o2r", "root": root}


def run_generate(trained, out_path, *extra):
    return main(["generate", "--checkpoint", str(trained["checkpoint"]),
                 "--vocab", str(trained["vocab"]), *extra,
                 *(("--out", str(out_path)) if out_path else ())])


class TestGenerate:
    def test_greedy_over_dataset(self, trained, tmp_path):
        out = tmp_path / "gen.jsonl"
        assert run_generate(trained, out, "--input", str(trained["dataset"]),
                            "--greedy") == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == [rec["id"] for rec in DATASET]
        for rec in records:
            assert set(rec) == {"id", "outline", "report", "logprob"}
            assert isinstance(rec["outline"], list)
            assert isinstance(rec["report"], list)

    def test_beam_one_matches_greedy(self, trained, tmp_path):
        greedy, beam = tmp_path / "greedy.jsonl", tmp_path / "beam.jsonl"
        assert run_generate(trained, greedy, "--input", str(trained["dataset"]),
                            "--greedy") == 0
        assert run_generate(trained, beam, "--input", str(trained["dataset"]),
                            "--beam", "1") == 0
        assert greedy.read_bytes() == beam.read_bytes()

    def test_wider_beam_runs(self, trained, tmp_path):
        out = tmp_path / "gen.jsonl"
        assert run_generate(trained, out, "--input", str(trained["dataset"]),
                            "--beam", "3") == 0
        assert len(out.read_text().splitlines()) == len(DATASET)

    def test_single_news_to_stdout(self, trained, capsys):
        assert run_generate(trained, None, "--news", "storms flood the coast",
                            "--greedy") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["id"] == "news0"

    def test_input_and_news_are_exclusive(self, trained, tmp_path, capsys):
        code = run_generate(trained, None, "--input", str(trained["dataset"]),
                            "--news", "storms", "--greedy")
        assert code == 1
        assert "exactly one of --input or --news" in capsys.readouterr().err
        code = run_generate(trained, None, "--greedy")
        assert code == 1

    def test_input_flags_are_checked_before_the_checkpoint_loads(self, tmp_path, capsys):
        # neither flag and a checkpoint that does not exist: the usage error,
        # not the missing file, since nothing is loaded before the flags pass
        code = main(["generate", "--checkpoint", str(tmp_path / "nonexistent.o2r"),
                     "--vocab", str(tmp_path / "vocab.txt")])
        assert code == 1
        assert capsys.readouterr().err == "error: pass exactly one of --input or --news\n"

    def test_record_attention_adds_rows(self, trained, tmp_path):
        out = tmp_path / "gen.jsonl"
        assert run_generate(trained, out, "--input", str(trained["dataset"]),
                            "--greedy", "--record-attention") == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert "attention" in rec
        assert len(rec["attention"]) == len(rec["outline"])

    def test_empty_input_writes_empty_file(self, trained, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "gen.jsonl"
        assert run_generate(trained, out, "--input", str(empty), "--greedy") == 0
        assert out.read_text() == ""

    def test_sampling_is_seed_reproducible(self, trained, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ("--input", str(trained["dataset"]), "--strategy", "sample",
                "--temperature", "0.8", "--seed", "7", "--sample-latent")
        assert run_generate(trained, a, *args) == 0
        assert run_generate(trained, b, *args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_names_the_key(self, trained, capsys):
        assert run_generate(trained, None, "--news", "storms", "--seed", "-1") == 1
        assert_one_line_error(capsys, "seed must be >= 0, got -1")

    def test_mismatched_vocabulary_fails(self, trained, tmp_path, capsys):
        other_ds = write_dataset(tmp_path / "other.jsonl", [
            {"id": "q1", "news": "volcano ash grounds flights",
             "report": "volcano ash grounds flights across the region for days"}])
        other_vocab = tmp_path / "other_vocab.txt"
        assert main(["build-vocab", "--dataset", str(other_ds),
                     "--out", str(other_vocab)]) == 0
        code = main(["generate", "--checkpoint", str(trained["checkpoint"]),
                     "--vocab", str(other_vocab), "--news", "volcano", "--greedy"])
        assert code == 1
        assert "digest mismatch" in capsys.readouterr().err


def rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header changed in place by edit(header)."""
    blob = src.read_bytes()
    end = 16 + int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:end])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[end:])
    return dst


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, err


def run_fresh(argv):
    """Run the CLI in a new interpreter, whose default warning filters print
    a warning and its source line to stderr: (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(outline2report.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "outline2report", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stderr


class TestMalformedInput:
    """Each malformed input ends in exit 1 and one `error:` line."""

    @pytest.mark.parametrize("line,fragment", [
        ('{"id": "a", "news": 5, "report": "y"}', "'news' must be a string"),
        ("7", "expected a JSON object"),
        ('{"id": "e2", "news": "", "report": "y"}', "pair 'e2': empty news"),
    ], ids=["non-string-field", "non-object-line", "empty-news"])
    def test_dataset_record(self, tmp_path, capsys, line, fragment):
        ds = tmp_path / "bad.jsonl"
        ds.write_text('{"id": "ok", "news": "x", "report": "y"}\n' + line + "\n")
        code = main(["build-vocab", "--dataset", str(ds), "--out", str(tmp_path / "v.txt")])
        assert code == 1
        assert_one_line_error(capsys, f"{ds}:2: ", fragment)

    def test_record_id_with_a_line_break(self, tmp_path, capsys):
        ds = tmp_path / "bad.jsonl"
        ds.write_text(json.dumps({"id": "a\nb", "news": "", "report": "y"}) + "\n")
        code = main(["build-vocab", "--dataset", str(ds), "--out", str(tmp_path / "v.txt")])
        assert code == 1
        assert_one_line_error(capsys, "'a\\nb': empty news")

    def test_checkpoint_header_without_arrays(self, trained, tmp_path, capsys):
        ckpt = rewrite_header(trained["checkpoint"], tmp_path / "ck.o2r",
                              lambda h: h.pop("arrays"))
        code = main(["generate", "--checkpoint", str(ckpt), "--vocab", str(trained["vocab"]),
                     "--news", "storms", "--greedy"])
        assert code == 1
        assert_one_line_error(capsys, "header lacks arrays")

    def test_unknown_config_key_in_checkpoint(self, trained, tmp_path, capsys):
        ckpt = rewrite_header(trained["checkpoint"], tmp_path / "ck.o2r",
                              lambda h: h["config"].update(bogus_key=1))
        code = main(["generate", "--checkpoint", str(ckpt), "--vocab", str(trained["vocab"]),
                     "--news", "storms", "--greedy"])
        assert code == 1
        assert_one_line_error(capsys, "bogus_key")

    @pytest.mark.parametrize("edit,fragment", [
        (lambda h: h.update(step="abc"), "step must be a non-negative int"),
        (lambda h: h.update(adam_t=1.5), "adam_t must be a non-negative int"),
        (lambda h: h.update(vocab_sha256=7), "vocab_sha256 must be a string"),
        (lambda h: h["config"].update(d_hid=8.5), "d_hid must be int"),
    ], ids=["step", "adam-t", "vocab-digest", "config-field"])
    def test_header_value_of_the_wrong_type(self, trained, tmp_path, capsys, edit, fragment):
        ckpt = rewrite_header(trained["checkpoint"], tmp_path / "ck.o2r", edit)
        code = main(["train", "--dataset", str(trained["dataset"]),
                     "--vocab", str(trained["vocab"]), "--out", str(tmp_path / "run"),
                     "--resume", str(ckpt)])
        assert code == 1
        assert_one_line_error(capsys, fragment)

    @pytest.mark.parametrize("command", ["generate", "resume"])
    def test_checkpoint_array_that_is_not_finite(self, trained, tmp_path, capsys, command):
        blob = trained["checkpoint"].read_bytes()
        end = 16 + int.from_bytes(blob[8:16], "little")
        entry = next(e for e in json.loads(blob[16:end])["arrays"]
                     if e["name"] == "report.out.W")
        at = end + entry["offset"]
        ckpt = tmp_path / "ck.o2r"
        ckpt.write_bytes(blob[:at] + struct.pack("<d", math.nan) + blob[at + 8:])
        argv = {
            "generate": ["generate", "--checkpoint", str(ckpt), "--vocab", str(trained["vocab"]),
                         "--news", "storms", "--greedy"],
            "resume": ["train", "--dataset", str(trained["dataset"]),
                       "--vocab", str(trained["vocab"]), "--out", str(tmp_path / "run"),
                       "--resume", str(ckpt)],
        }[command]
        assert main(argv) == 1
        assert_one_line_error(capsys, "array 'report.out.W' holds non-finite values")

    @pytest.mark.parametrize("field,value", [("offset", -8), ("nbytes", 8)])
    def test_array_extent_that_does_not_fit_its_shape(self, trained, tmp_path, capsys,
                                                      field, value):
        ckpt = rewrite_header(trained["checkpoint"], tmp_path / "ck.o2r",
                              lambda h: h["arrays"][0].update({field: value}))
        code = main(["generate", "--checkpoint", str(ckpt), "--vocab", str(trained["vocab"]),
                     "--news", "storms", "--greedy"])
        assert code == 1
        assert_one_line_error(capsys, "array 'embedding.table'")

    @pytest.mark.parametrize("kind", ["dataset", "vocabulary", "config", "generations"])
    def test_bytes_that_are_not_utf8(self, trained, tmp_path, capsys, kind):
        bad = tmp_path / f"bad-{kind}"
        first_line, argv = {
            "dataset": (json.dumps(DATASET[0]), ["build-vocab", "--dataset", str(bad),
                                                 "--out", str(tmp_path / "v.txt")]),
            "vocabulary": ("<pad>", ["generate", "--checkpoint", str(trained["checkpoint"]),
                                     "--vocab", str(bad), "--news", "storms", "--greedy"]),
            "config": ("# settings", ["build-vocab", "--config", str(bad), "--dataset",
                                      str(trained["dataset"]), "--out", str(tmp_path / "v.txt")]),
            "generations": (json.dumps({"id": "p1", "report": ["storms"]}),
                            ["evaluate", "--generated", str(bad),
                             "--dataset", str(trained["dataset"])]),
        }[kind]
        bad.write_bytes(first_line.encode() + b"\n\xff\xfe\n")
        assert main(argv) == 1
        assert_one_line_error(capsys, f"{bad}:2: not UTF-8 text (byte 0xff)")

    def test_vocabulary_without_the_special_tokens(self, trained, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("storms\nflood\n")
        code = main(["generate", "--checkpoint", str(trained["checkpoint"]),
                     "--vocab", str(vocab), "--news", "storms", "--greedy"])
        assert code == 1
        assert_one_line_error(capsys, f"{vocab}: must start with the special tokens "
                                      "<pad> <bos> <eos> <unk>")

    def test_vocabulary_with_a_duplicate_token(self, trained, tmp_path, capsys):
        tokens = trained["vocab"].read_text().splitlines()
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(tokens + [tokens[5]]) + "\n")
        code = main(["generate", "--checkpoint", str(trained["checkpoint"]),
                     "--vocab", str(vocab), "--news", "storms", "--greedy"])
        assert code == 1
        assert_one_line_error(capsys, f"{vocab}: duplicate token {tokens[5]!r} "
                                      f"(ids 5 and {len(tokens)})")


class TestEvaluate:
    def test_gold_candidates_score_one(self, trained, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        with open(gen, "w", encoding="utf-8") as fh:
            for rec in DATASET:
                fh.write(json.dumps({"id": rec["id"],
                                     "report": rec["report"].split()}) + "\n")
        assert main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])]) == 0
        stdout = capsys.readouterr().out
        assert "pairs evaluated      : 4" in stdout
        assert "mean sentence BLEU   : 1.000000" in stdout
        assert "corpus BLEU          : 1.000000" in stdout

    def test_generated_output_evaluates(self, trained, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        assert run_generate(trained, gen, "--input", str(trained["dataset"]),
                            "--greedy") == 0
        assert main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])]) == 0
        stdout = capsys.readouterr().out
        assert "pairs evaluated      : 4" in stdout
        assert "corpus BLEU" in stdout

    def test_empty_report_evaluates_quietly(self, dataset, tmp_path):
        # generate writes an empty report when EOS comes first; it scores 0
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps({"id": "p1", "report": []}) + "\n")
        argv = ["evaluate", "--generated", str(gen), "--dataset", str(dataset)]
        assert run_fresh(argv) == (0, "")

    def test_unknown_candidate_id_fails(self, trained, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps({"id": "ghost", "report": ["the"]}) + "\n")
        code = main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_malformed_generation_file_names_the_line(self, trained, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        gen.write_text('{"id": "p1", "report": ["the"]}\nnot json\n')
        code = main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])])
        assert code == 1
        assert f"{gen}:2" in capsys.readouterr().err

    def test_record_without_report_field_fails(self, trained, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        gen.write_text('{"id": "p1"}\n')
        code = main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])])
        assert code == 1
        assert "'id' and 'report'" in capsys.readouterr().err

    @pytest.mark.parametrize("report", [5, "the mine in andes"], ids=["number", "string"])
    def test_report_that_is_not_a_token_list_fails(self, trained, tmp_path, capsys, report):
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps({"id": "p1", "report": report}) + "\n")
        code = main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])])
        assert code == 1
        assert_one_line_error(capsys, f"{gen}:1: ", "list of token strings")

    def test_duplicate_generation_id_fails(self, trained, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        gen.write_text('{"id": "p1", "report": ["the"]}\n'
                       '{"id": "p2", "report": ["the"]}\n'
                       '{"id": "p1", "report": ["a"]}\n')
        code = main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])])
        assert code == 1
        assert_one_line_error(capsys, f"{gen}:3: ", "duplicate id 'p1'")

    def test_duplicate_dataset_id_fails(self, tmp_path, capsys):
        ds = write_dataset(tmp_path / "ds.jsonl", DATASET + DATASET[:1])
        gen = tmp_path / "gen.jsonl"
        gen.write_text('{"id": "p1", "report": ["the"]}\n')
        code = main(["evaluate", "--generated", str(gen), "--dataset", str(ds)])
        assert code == 1
        assert_one_line_error(capsys, f"{ds}: ", "duplicate id 'p1'")

    def test_non_object_record_fails(self, trained, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        gen.write_text("7\n")
        code = main(["evaluate", "--generated", str(gen),
                     "--dataset", str(trained["dataset"])])
        assert code == 1
        assert_one_line_error(capsys, f"{gen}:1")


def vocab_size(*argv):
    """Entries of the vocabulary that one build-vocab run writes (its --out
    must be the last two arguments)."""
    assert main(["build-vocab", *argv]) == 0
    return len(Path(argv[-1]).read_text().splitlines())


def generated(trained, tmp_path, *extra):
    out = tmp_path / "gen.jsonl"
    assert run_generate(trained, out, "--input", str(trained["dataset"]), *extra) == 0
    return out.read_text()


class TestSettings:
    """One precedence rule for every subcommand: the config file, then
    --set items, then the flags that stand for a config key."""

    def test_build_vocab_min_freq(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.min_freq = 99\n")
        out = str(tmp_path / "v.txt")
        base = ("--dataset", str(dataset), "--config", str(cfg))
        everything = vocab_size("--dataset", str(dataset), "--out", out)
        frequent = vocab_size("--dataset", str(dataset), "--min-freq", "2", "--out", out)
        assert frequent < everything
        assert vocab_size(*base, "--set", "data.min_freq=2", "--out", out) == frequent
        assert vocab_size(*base, "--set", "data.min_freq=2", "--min-freq", "1",
                          "--out", out) == everything
        cfg.write_text("data.min_freq = 2\n")
        assert vocab_size(*base, "--out", out) == frequent

    def test_train_output_dir(self, dataset, vocab, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output.dir = {tmp_path / 'file'}\n")
        base = ["train", "--dataset", str(dataset), "--vocab", str(vocab),
                "--config", str(cfg), "--epochs", "0", *TINY]
        assert main(base) == 0
        assert main([*base, "--set", f"output.dir={tmp_path / 'set'}"]) == 0
        assert main([*base, "--set", f"output.dir={tmp_path / 'set2'}",
                     "--out", str(tmp_path / "flag")]) == 0
        written = sorted(p.parent.name for p in tmp_path.glob("*/checkpoint.o2r"))
        assert written == ["file", "flag", "set"]

    def test_generate_decode_settings(self, trained, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("decode.strategy = sample\ndecode.seed = 1\n")
        by_seed = [generated(trained, tmp_path, "--strategy", "sample", "--seed", seed)
                   for seed in ("1", "2", "3")]
        assert len(set(by_seed)) == 3
        base = ("--config", str(cfg))
        assert generated(trained, tmp_path, *base) == by_seed[0]
        assert generated(trained, tmp_path, *base, "--set", "decode.seed=2") == by_seed[1]
        assert generated(trained, tmp_path, *base, "--set", "decode.seed=2",
                         "--seed", "3") == by_seed[2]

    def test_generate_reads_the_vocabulary_from_the_config(self, trained, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data.vocab = {trained['vocab']}\n")
        expected = generated(trained, tmp_path, "--greedy")
        out = tmp_path / "cfg.jsonl"
        assert main(["generate", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(cfg), "--input", str(trained["dataset"]),
                     "--out", str(out), "--greedy"]) == 0
        assert out.read_text() == expected
        capsys.readouterr()
        code = main(["generate", "--checkpoint", str(trained["checkpoint"]),
                     "--news", "storms", "--greedy"])
        assert code == 1
        assert_one_line_error(capsys, "missing vocabulary path")

    def test_beam_width_implies_beam(self, trained, tmp_path):
        beam = generated(trained, tmp_path, "--strategy", "beam", "--beam", "3")
        greedy = generated(trained, tmp_path, "--greedy")
        assert beam != greedy
        assert generated(trained, tmp_path, "--beam", "3") == beam
        assert generated(trained, tmp_path, "--set", "decode.strategy=greedy",
                         "--beam", "3") == beam
        assert generated(trained, tmp_path, "--greedy", "--beam", "3") == greedy

    def test_greedy_and_strategy_are_exclusive(self, trained, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_generate(trained, None, "--news", "storms", "--greedy", "--strategy", "beam")
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_set_errors_name_the_item(self, dataset, vocab, tmp_path, capsys):
        code = main(["train", "--dataset", str(dataset), "--vocab", str(vocab),
                     "--out", str(tmp_path / "run"), "--set", "training.seed=2",
                     "--set", "training.d_emb"])
        assert code == 1
        assert_one_line_error(capsys, "--set:2: ", "expected 'key = value'")

    def test_every_config_flag_stores_under_a_known_key(self):
        parser = build_parser()
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        dests = {action.dest for sub in subcommands.values() for action in sub._actions}
        dotted = {dest for dest in dests if "." in dest}
        assert {"data.dataset", "decode.beam_width", "decode.deterministic_latent"} <= dotted
        assert dotted <= set(known_keys())


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        stdout = capsys.readouterr().out
        assert "all blocks pass" in stdout
        assert "worst relative error" in stdout
        # one table row per parameter block
        assert stdout.count("pass") >= 10

    def test_overflowing_epsilon_fails_with_one_error_line(self):
        code, err = run_fresh(["gradcheck", "--epsilon", "1e200"])
        assert code == 1
        assert err == "error: non-finite loss while probing embedding.table[8]\n", err


# -- fuzz: malformed input never escapes as a traceback ------------------------

_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_words = st.lists(st.sampled_from(["storms", "flood", "the", "coast", "vote"]),
                  min_size=1, max_size=5).map(" ".join)
_scalar = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | _text
_json = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6)
_ids = st.sampled_from(["p1", "p2", "p\n3"]) | _json  # ids are echoed in diagnostics


def _lines(valid, fields):
    """JSON-lines text. A line is a well-formed record drawn from `valid`, an
    object with every one or some of `fields` (name -> value strategy), or
    any text at all."""
    objects = (valid, st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields))
    line = st.one_of(*(o.map(json.dumps) for o in objects), _text)
    return st.lists(line, min_size=1, max_size=3).map("\n".join)


_generation_file = _lines(
    st.fixed_dictionaries({"id": st.sampled_from(["p1", "p2"]), "report": _words.map(str.split)}),
    {"id": _ids, "report": st.lists(_text, max_size=4) | _scalar | _json})
_dataset_file = _lines(
    st.fixed_dictionaries({"id": st.sampled_from(["p1", "p2"]), "news": _words,
                           "report": _words}),
    {"id": _ids, "news": _words | _json, "report": _words | _json, "outline": _words | _json})
_keys = st.sampled_from(["data.min_freq", "data.max_size", "training.seed", "decode.temperature"])
_config_line = st.one_of(
    st.tuples(_keys, st.integers(1, 9).map(str)).map(" = ".join),
    st.tuples(_keys | _text, st.sampled_from(["=", " = ", ""]),
              st.integers(-2, 9).map(str) | _text).map("".join),
    _text)
_config_file = st.lists(_config_line, max_size=3).map("\n".join)


def run_quietly(argv):
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestCliFuzz:
    """Random generation, dataset and config files fed to evaluate and
    build-vocab: exit 0, or exit 1 with exactly one `error:` line."""

    @settings(max_examples=150, deadline=None)
    @given(generated=_generation_file, dataset=_dataset_file, config=_config_file,
           setting=_config_line)
    def test_no_traceback(self, generated, dataset, config, setting):
        with tempfile.TemporaryDirectory() as tmp:
            gen, ds, cfg, out = (Path(tmp) / name
                                 for name in ("gen.jsonl", "ds.jsonl", "run.cfg", "v.txt"))
            for path, text in ((gen, generated), (ds, dataset), (cfg, config)):
                path.write_text(text, encoding="utf-8")
            for argv in (["evaluate", "--generated", str(gen), "--dataset", str(ds)],
                         ["build-vocab", "--dataset", str(ds), "--config", str(cfg),
                          f"--set={setting}", "--out", str(out)]):
                code, err = run_quietly(argv)
                assert code in (0, 1), argv
                if code == 1:
                    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
