"""Tests of the benchmark's own arithmetic and determinism.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from outline2report import generation, outline_decoder  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def test_self_time_subtracts_children_at_every_depth():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
    rec = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("a1"):
                pass
        with rec.span("b"):
            pass
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert list(rec.parent) == [-1, 0, 1, 0]


def test_spans_must_close_in_order():
    rec = spans.SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_totals_split_by_operation():
    rec = spans.SpanRecorder(clock=FakeClock(range(100)))
    for op in (spans.SETUP, 0, 1):
        rec.current_op = op
        with rec.span("step"):
            with rec.span("inner"):
                pass
    assert rec.totals(range(0, 2)) == {"step": (4.0, 2), "inner": (2.0, 2)}
    assert rec.totals(range(spans.SETUP, spans.SETUP + 1)) == {"step": (2.0, 1),
                                                               "inner": (1.0, 1)}


@pytest.mark.parametrize("n, expected", [
    (19, []), (20, [50]), (99, [50]), (100, [50, 90]), (999, [50, 90]),
    (1000, [50, 90, 99]),
])
def test_percentile_needs_ten_samples_beyond(n, expected):
    assert measure.supported_percentiles(n) == expected


def test_timing_summary_keeps_fastest_median_and_highest_tail():
    summary = measure.timing_summary([i / 1000 for i in range(100, 0, -1)])
    assert list(summary) == ["min", "p50", "p90"]
    assert summary["min"] == pytest.approx(1.0)
    assert summary["p50"] == pytest.approx(50.5)


def test_patches_rebind_every_module_and_restore():
    original = outline_decoder.attend
    assert generation.attend is original
    rec = spans.SpanRecorder()
    patches = spans.Patches(rec, [("outline_decoder.attend", outline_decoder, "attend")],
                            "outline2report")
    try:
        assert outline_decoder.attend is not original
        assert generation.attend is outline_decoder.attend
    finally:
        patches.restore()
    assert outline_decoder.attend is original and generation.attend is original


def test_zipf_corpus_is_seeded_with_fixed_lengths():
    params = {**workloads.ZIPF, "pairs": 8}
    a = workloads.make_zipf_corpus(3, **params)
    assert a == workloads.make_zipf_corpus(3, **params)
    assert a != workloads.make_zipf_corpus(4, **params)
    assert {len(p.news) for p in a} == {params["news_len"]}
    assert {len(p.report) for p in a} == {params["report_len"]}
    words = [workloads.zipf_word(r) for r in range(800)]
    assert len(set(words)) == len(words) and all(w.isalpha() for w in words)


def test_well_formed_sequences():
    eos = workloads.EOS
    assert workloads.well_formed((5, 6, eos), vocab_size=10, cap=20)
    assert workloads.well_formed((5, 6, 7), vocab_size=10, cap=3)
    assert not workloads.well_formed((5, 6, 7), vocab_size=10, cap=20)
    assert not workloads.well_formed((5, 12, eos), vocab_size=10, cap=20)


COUNT_METRICS = ("model.forward_cache_mib", "generation.step_calls_per_token")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    # different run lengths, same seed: the counted window is the same
    first = measure.run_traced(name, seed=5, seconds=0.0)
    second = measure.run_traced(name, seed=5, seconds=1.0)
    assert first["failed"] == 0 and second["failed"] == 0
    counts = [{k: v for k, (v, _) in run["metrics"].items()
               if k.endswith(".calls") or k in COUNT_METRICS} for run in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["numerics.lstm_step.calls"] > 0


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".ckpt-*"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "train-hier", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
