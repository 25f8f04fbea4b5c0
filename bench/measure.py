"""Timing loop, statistics, output checks and the traced run.

A run sets its workload up several times (the median is ``setup_s``), then
runs operations back to back for the requested seconds and at least
``MIN_OPS`` of them. The traced run measures the per-layer numbers instead:
it runs untraced for half the time, then sets up again with every traced
function wrapped and runs for the other half. The outputs of the operations
both halves ran must be equal bit for bit, and the difference between the
halves' op times is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from outline2report import encoder, generation, model, numerics, training
from outline2report import corpus, outline_decoder, report_decoder

from spans import SETUP, Patches, SpanRecorder
from workloads import WORKLOADS, fail

DEFAULT_SEED = 0
PERCENTILES = (50, 90, 99)
MIN_BEYOND = 10     # a percentile is reported only with this many samples above it
MIN_OPS = 2 * MIN_BEYOND  # supports the median; 20 steps also let the loss fall
# The end-to-end op time the bounds apply to is the fastest op of a run. The
# 2-vCPU host this was tuned on alternates, every few seconds, between a fast
# phase and one about 1.6x slower (a pure-Python loop shows it too), and a
# run can sit in the slow phase for most of its 20 s. Op times are bimodal,
# so a run's median flips between the phases: over same-code runs its
# quartile spread was 0.16-0.34 of the median, and 0.04-0.16 for the 10th
# percentile. Noise only ever adds time, so the fastest op tracks the code's
# own cost; its spread was 0.03-0.07. Medians and tails are still printed.
GATED_STAT = "min"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

clock = time.perf_counter

# (span name, owner, attribute); names follow <module>.<function>.
TRACED = (
    ("numerics.lstm_step", numerics.LSTMCell, "step"),
    ("numerics.lstm_step_backward", numerics.LSTMCell, "step_backward"),
    ("numerics.run_lstm", numerics, "run_lstm"),
    ("numerics.run_lstm_backward", numerics, "run_lstm_backward"),
    ("numerics.log_softmax", numerics, "log_softmax"),
    ("numerics.clip_global_norm", numerics, "clip_global_norm"),
    ("outline_decoder.attend", outline_decoder, "attend"),
    ("outline_decoder.attend_backward", outline_decoder, "attend_backward"),
    ("outline_decoder.sequence_nll", outline_decoder, "sequence_nll"),
    ("outline_decoder.sequence_nll_backward", outline_decoder, "sequence_nll_backward"),
    ("outline_decoder.forward", outline_decoder.OutlineDecoder, "forward_teacher"),
    ("outline_decoder.backward", outline_decoder.OutlineDecoder, "backward"),
    ("outline_decoder.step", outline_decoder.OutlineDecoder, "step"),
    ("report_decoder.forward", report_decoder.ReportDecoder, "forward_teacher"),
    ("report_decoder.backward", report_decoder.ReportDecoder, "backward"),
    ("report_decoder.step", report_decoder.ReportDecoder, "step"),
    ("report_decoder.fuse", report_decoder, "fuse_news_outline"),
    ("model.forward", model.NewsToReportModel, "forward"),
    ("model.backward", model.NewsToReportModel, "backward"),
    ("encoder.forward", encoder.BiLSTMEncoder, "forward"),
    ("encoder.backward", encoder.BiLSTMEncoder, "backward"),
    ("encoder.embedding_lookup", encoder.Embedding, "lookup"),
    ("encoder.embedding_grad", encoder.Embedding, "accumulate_grad"),
    ("training.adam_step", training.AdamOptimizer, "step"),
    ("training.checkpoint_save", training, "save_checkpoint"),
    ("training.checkpoint_load", training, "load_checkpoint"),
    ("corpus.encode_batch", corpus, "encode_batch"),
    ("generation.greedy_decode", generation, "greedy_decode"),
    ("generation.beam_search", generation, "beam_search"),
)
# These run only while a decode workload sets up, so they are per set-up.
SETUP_SPANS = ("training.checkpoint_save", "training.checkpoint_load")
# Sizing model.forward's result gets a span of its own, so that its cost is
# not charged to the step's unattributed time.
ACCOUNTING_SPAN = "bench.cache_accounting"


def supported_percentiles(n: int) -> list[int]:
    """Percentiles with at least MIN_BEYOND of n samples above them."""
    return [q for q in PERCENTILES if n * (100 - q) >= 100 * MIN_BEYOND]


def timing_summary(seconds: list[float]) -> dict[str, float]:
    """Fastest op, median and highest supported tail percentile, in ms."""
    qs = supported_percentiles(len(seconds))
    keep = [q for q in qs if q == 50 or q == qs[-1]]
    values = np.percentile(np.asarray(seconds) * 1000.0, keep) if keep else []
    return {GATED_STAT: _gated_ms(seconds), **{f"p{q}": float(v) for q, v in zip(keep, values)}}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def retained_bytes(obj) -> int:
    """Bytes of the distinct buffers behind every ndarray reachable from obj
    through dataclass fields, lists, tuples and dicts. A view counts as the
    array that owns its memory, once."""
    owners = {}
    stack = [obj]
    seen = set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            owners[id(x)] = x.nbytes
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
    return sum(owners.values())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def load_expected(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def timed_ops(wl, state, inputs, seconds, min_ops, recorder=None, pauses=(), first=0):
    """Run operations back to back; returns (times, results, error).

    Stops once ``seconds`` of operation time have passed, at least
    ``min_ops`` ran and the workload is at a boundary, or at the first
    operation that raises. ``pauses`` are (offset seconds, callback) pairs;
    each callback runs between operations once the offset has passed, and
    its time is not counted. Operations are numbered from ``first``.
    """
    times, results = [], []
    pending = sorted(pauses, key=lambda p: p[0])
    start = clock()
    paused = 0.0
    while True:
        i = first + len(times)
        try:
            if recorder is None:
                t0 = clock()
                out = wl.call(state, i, inputs)
                times.append(clock() - t0)
            else:
                recorder.current_op = i
                with recorder.span(wl.root_span) as root:
                    out = wl.call(state, i, inputs)
                times.append(recorder.end[root] - recorder.start[root])
                recorder.current_op = SETUP
        except Exception:
            return times, results, traceback.format_exc()
        results.append(wl.inspect(state, out))
        while pending and clock() - start - paused >= pending[0][0]:
            t0 = clock()
            pending.pop(0)[1]()
            paused += clock() - t0
        if len(times) >= min_ops and clock() - start - paused >= seconds and wl.may_stop(state):
            return times, results, None


def setup_in_new_process(name: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the package and set the
    workload up (interpreter start-up excluded)."""
    code = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
            "import workloads; workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4])); "
            "print(time.perf_counter() - t0)")
    bench = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", code, str(bench), str(bench.parent / "src"), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=170)
    return float(proc.stdout)


def _counts(results, error) -> tuple[int, int]:
    """(attempted, failed); an operation that raised is both."""
    raised = error is not None
    return len(results) + raised, sum(not r.ok for r in results) + raised


def _report_error(error):
    if error is not None:
        print(f"operation raised:\n{error}", file=sys.stderr, flush=True)


def run_untraced(name: str, seed: int, seconds: float, import_s: float = 0.0) -> dict:
    """``setup_s`` is the median of ``setup_repeats`` set-ups: this process's
    own (``import_s`` plus building the state it then runs) and the rest in
    fresh interpreters spread evenly over the run, so that one slow phase of
    a shared host does not set the figure. ``peak_rss_mib`` covers import,
    set-up and the first ``check_ops`` operations."""
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    t0 = clock()
    state = wl.setup(seed)
    setups = [import_s + clock() - t0]
    times, results, error = timed_ops(wl, state, inputs, 0.0, wl.check_ops)
    # Read before the set-up samples start: the allocations they make in this
    # process shift its later heap layout, and with it the peak, from run to run.
    rss = peak_rss_mib()
    if error is None:
        remaining = max(seconds - sum(times), 0.0)
        extra = wl.setup_repeats - 1
        pauses = [(remaining * j / extra, lambda: setups.append(setup_in_new_process(name, seed)))
                  for j in range(extra)]
        more_times, more_results, error = timed_ops(
            wl, state, inputs, remaining, MIN_OPS - len(times), pauses=pauses, first=len(times))
        times += more_times
        results += more_results
    _report_error(error)
    failed_checks, observed = ([], {}) if error else wl.run_checks(
        state, results, load_expected(name, seed))
    summary = timing_summary(times)
    setup_s = statistics.median(setups)
    attempted, failed = _counts(results, error)
    return {
        "workload": name, "seed": seed, "trace": 0,
        "params": wl.describe(state),
        "samples": {"ops": len(times), "setups": len(setups)},
        "attempted": attempted, "failed": failed,
        "failed_checks": failed_checks, "observed": observed,
        "named": {
            **{f"{wl.op_metric}.{q}": (v, "ms") for q, v in summary.items()},
            wl.tokens_metric: (wl.total_tokens(state, results) / sum(times) if times else 0.0,
                               "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (rss, "MiB"),
        },
        "metrics": {
            "setup_s": (setup_s, "s"),
            f"op_ms.{GATED_STAT}": (summary[GATED_STAT], "ms"),
            "peak_rss_mib": (rss, "MiB"),
        },
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Half the time untraced, half traced from a fresh set-up; the outputs
    of the operations both halves ran must be identical."""
    wl = WORKLOADS[name]
    k = wl.check_ops
    least = max(k, MIN_OPS)
    inputs = wl.inputs(seed)
    state = wl.setup(seed)
    ref_times, ref_results, error = timed_ops(wl, state, inputs, seconds / 2, least)
    _report_error(error)
    ref_counts = _counts(ref_results, error)
    state = None

    recorder = SpanRecorder()
    cache_bytes = {}

    def account(result):
        with recorder.span(ACCOUNTING_SPAN):
            cache_bytes[recorder.current_op] = retained_bytes(result)

    patches = Patches(recorder, TRACED, "outline2report",
                      after={"model.forward": account})
    try:
        state = wl.setup(seed)
        times, results, traced_error = timed_ops(wl, state, inputs, seconds / 2, least,
                                                 recorder)
    finally:
        patches.restore()
    _report_error(traced_error)
    error = error or traced_error

    failed_checks = []
    if error is None:
        failed_checks, _ = wl.run_checks(state, results, load_expected(name, seed))
        differ = [i for i, (a, b) in enumerate(zip(ref_results, results))
                  if repr(a.record) != repr(b.record)]
        if differ:
            fail(results, differ, f"{len(differ)} traced outputs differ from the untraced "
                 f"ones, first at operation {differ[0]}", failed_checks)
    traced_counts = _counts(results, traced_error)
    layers = layer_metrics(recorder, wl.root_span, len(times), k,
                           cache_bytes, sum(r.tokens for r in results[:k]))
    traced_ms, untraced_ms = _gated_ms(times), _gated_ms(ref_times)
    layers["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    stat = f"{wl.op_metric}.{GATED_STAT}"
    return {
        "workload": name, "seed": seed, "trace": 1,
        "params": wl.describe(state),
        "samples": {"ops": len(times), "untraced_ops": len(ref_times), "spans": len(recorder),
                    "count_window": k},
        "attempted": ref_counts[0] + traced_counts[0],
        "failed": ref_counts[1] + traced_counts[1],
        "failed_checks": failed_checks, "observed": {},
        "named": {f"{stat} untraced": (untraced_ms, "ms"),
                  f"{stat} traced": (traced_ms, "ms"), **layers},
        "metrics": layers,
    }


def _gated_ms(seconds: list[float]) -> float:
    return min(seconds) * 1000.0 if seconds else 0.0


def layer_metrics(recorder: SpanRecorder, root_span: str, n_ops: int, window: int,
                  cache_bytes: dict, window_tokens: int) -> dict:
    """Per-layer metrics from a traced run of ``n_ops`` operations.

    ``.ms`` is self time per operation over every operation, except for the
    set-up spans, which are per set-up. ``.calls`` is calls per operation over
    the first ``window`` operations, so it repeats exactly for a seed.
    """
    selfs = recorder.self_times()
    per_op = recorder.totals(range(0, n_ops), selfs)
    counted = recorder.totals(range(0, window), selfs)
    setup = recorder.totals(range(SETUP, SETUP + 1), selfs)
    n = max(n_ops, 1)
    layers = {}
    for span_name, _, _ in TRACED:
        if span_name in SETUP_SPANS:
            s, calls = setup.get(span_name, (0.0, 0))
        else:
            s = per_op.get(span_name, (0.0, 0))[0] / n
            calls = counted.get(span_name, (0.0, 0))[1] / window
        layers[f"{span_name}.ms"] = (1000.0 * s, "ms")
        layers[f"{span_name}.calls"] = (calls, "count")
    layers["model.unattributed.ms"] = (1000.0 * per_op.get(root_span, (0.0, 0))[0] / n, "ms")
    layers["model.forward_cache_mib"] = (
        sum(cache_bytes.get(i, 0) for i in range(window)) / window / 2**20, "MiB")
    step_calls = sum(counted.get(s, (0.0, 0))[1]
                     for s in ("outline_decoder.step", "report_decoder.step"))
    layers["generation.step_calls_per_token"] = (
        step_calls / window_tokens if window_tokens else 0.0, "count")
    return layers
