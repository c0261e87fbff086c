#!/usr/bin/env python3
"""kgvec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload joint-relworld --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, times set-up several times,
then repeats the workload's round of operations for about ``--seconds``
seconds and reports medians.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates plain and traced rounds and prints the per-layer
metrics, the tracing overhead among them.  Output checks run in the first
round either way.  The last stdout line is one JSON object; human-readable
lines and run metadata come before it, and a copy with the spans goes to
``perfbench/_out/``.  Exit code 0 means every operation and check passed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

# One BLAS thread keeps runs steady on a small shared machine; it must be
# set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_REPEATS = 5
MIN_ROUNDS = 2


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_kgvec() -> float:
    """Import kgvec from this checkout's ``src`` and return the import time."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import kgvec
    import kgvec.cli  # noqa: F401

    seconds = perf_counter() - start
    if Path(kgvec.__file__).resolve().parent != src / "kgvec":
        raise ImportError(f"kgvec imported from {kgvec.__file__}, not from {src}")
    return seconds


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def blas_info() -> dict:
    info: dict = {"threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = BLAS_THREADS
    info["threads_source"] = "environment"
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def percentile_us(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e6
    return quantiles(samples, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(tracer, rounds: int, work_s: float, overhead: float, accuracy: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-round layer figures from a tracer that saw ``rounds`` traced rounds
    of ``work_s`` seconds each.

    A layer that some workload bypasses is reported as calls, share of the
    round (%) and calls per second of self time, so that bypassing reads as
    zero without a constant zero time; layers that every workload reaches
    also get their self time in seconds.
    """
    import tracing as tr

    stats, counters = tracer.stats, tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def get(name):
        return stats.get(name) or tr.Stat()

    def calls(name):
        out[f"{name}.calls"] = (get(name).calls / rounds, "count")

    def self_s(name):
        out[f"{name}.self_s"] = (get(name).self_time / rounds, "s")

    def share(name):
        out[f"{name}.self_pct"] = (100.0 * get(name).self_time / rounds / work_s, "%")

    def rate(name):
        s = get(name)
        out[f"{name}.calls_per_s"] = (s.calls / s.self_time if s.self_time else 0.0, "1/s")

    def gflops(name, key):
        s = get(name)
        out[f"{name}.gflops_computed"] = (counters[key] / s.total / 1e9 if s.total else 0.0, "GFLOP/s")

    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    out["evaluation.analogy_acc"] = (accuracy, "ratio")
    out["trace.work_s"] = (work_s, "s")
    for name in ("trainer.train", "trainer.init_state", "corpus.context_pair_arrays", "kg.load_triples",
                 "evaluation.run_analogy_suite", "evaluation.rank_sweep", "cli.train", "cli.rank_sweep"):
        self_s(name)
    calls("trainer.train")
    for name, key in (("trainer.save_checkpoint", "checkpoint.save_bytes"),
                      ("trainer.load_checkpoint", "checkpoint.load_bytes")):
        self_s(name)
        s = get(name)
        out[f"{name}.mb_per_s"] = (counters[key] / s.total / 1e6 if s.total else 0.0, "MB/s")

    name = "model.skipgram_ns_loss_grad"
    calls(name), share(name), rate(name), gflops(name, "flops.skipgram")
    kg_self = 0.0
    for variant in ("lowrank", "transe", "transh", "se", "transr"):
        name = f"model.knowledge_loss_grad.{variant}"
        calls(name), share(name), rate(name), gflops(name, f"flops.{variant}")
        s = get(name)
        out[f"{name}.active_ratio"] = (counters[f"active.{variant}"] / s.calls if s.calls else 0.0, "ratio")
        kg_self += s.self_time
    out["model.knowledge_loss_grad.self_s"] = (kg_self / rounds, "s")
    for name in ("model.score_triple", "projection.apply", "projection.apply_transpose", "kg.corrupt_triple"):
        calls(name), self_s(name)
    s = get("kg.corrupt_triple")
    out["kg.corrupt_triple.us_per_call"] = (1e6 * s.self_time / s.calls if s.calls else 0.0, "us")

    for name in ("corpus.tokenize", "corpus.merge_phrases", "corpus.build_vocabulary",
                 "corpus.build_negative_table", "corpus.load_phrase_lexicon", "model.save_embeddings_text",
                 "cli.build_vocab", "cli.eval_analogy", "cli.export"):
        calls(name), share(name)
    out["corpus.merge_phrases.lexicon_entries"] = (counters["merge_phrases.lexicon_entries"] / rounds, "count")
    rate("corpus.merge_phrases")

    s = get("evaluation.RelationalAnalogy.init")
    out["evaluation.RelationalAnalogy.init_s"] = (s.total / s.calls if s.calls else 0.0, "s")
    samples = get("evaluation.RelationalAnalogy.call").samples
    out["evaluation.RelationalAnalogy.call_p50_us"] = (percentile_us(samples, 50), "us")
    out["evaluation.RelationalAnalogy.call_p99_us"] = (percentile_us(samples, 99), "us")
    hits, misses = counters["relational.tail_cache_hits"], counters["relational.tail_cache_misses"]
    out["evaluation.RelationalAnalogy.tail_cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                                                "ratio")
    s = get("evaluation.analogy_3cosadd")
    out["evaluation.analogy_3cosadd.p50_us"] = (percentile_us(s.samples, 50), "us")
    out["evaluation.analogy_3cosadd.p99_us"] = (percentile_us(s.samples, 99), "us")
    out["evaluation.analogy_3cosadd.bytes_computed"] = (counters["3cosadd.bytes"] / s.calls if s.calls else 0.0, "B")
    out["evaluation.analogy_3cosadd.gbytes_per_s_computed"] = (
        counters["3cosadd.bytes"] / s.total / 1e9 if s.total else 0.0, "GB/s")
    return out


def computed_per_call(tracer) -> dict[str, dict[str, float]]:
    """Mean computed FLOPs and bytes per call of each traced kernel."""
    out = {}
    for kernel, layer in [("skipgram", "model.skipgram_ns_loss_grad")] + [
        (v, f"model.knowledge_loss_grad.{v}") for v in ("lowrank", "transe", "transh", "se", "transr")
    ]:
        stat = tracer.stats.get(layer)
        if stat is not None and stat.calls:
            out[layer] = {
                "flops_per_call": tracer.counters[f"flops.{kernel}"] / stat.calls,
                "bytes_per_call": tracer.counters[f"bytes.{kernel}"] / stat.calls,
            }
    return out


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(args, import_s: float):
    import tracing as tr
    import workloads as wl
    from checks import Checker

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    check = Checker()
    run_id = f"{args.workload}-s{args.seed}"
    tracer = tr.Tracer(run_id) if args.trace else None
    meta: dict = {}
    metrics: dict[str, tuple[float, str]] = {}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{run_id}-", dir=OUT))
    try:
        workload = wl.WORKLOADS[args.workload](workdir, args.seed)
        meta.update(why=workload.why, params=workload.params)

        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
        check.expect(True, "set-up")

        rec = wl.Recorder(tracer)
        rounds = 0
        started = perf_counter()
        while True:
            if tracer is not None:
                tracer.run_id = f"{run_id}-r{rounds}"
            workload.round(rec, check, first=rounds == 0)
            rounds += 1
            elapsed = perf_counter() - started
            # stop when one more round of the mean length would overrun
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
                break
        meta.update(rounds=rounds, measured_s=perf_counter() - started, setup_samples_s=setup_times,
                    import_s=import_s, work_s=rec.work_s, traced_work_s=rec.traced_s)

        if tracer is not None:
            calls = {name: s.calls for name, s in tracer.stats.items()}
            workload.coverage(check, calls, tracer.counters)
            overhead = rec.traced_s / rec.work_s - 1.0
            accuracy = median(rec.samples["analogy_acc"])
            metrics = layer_metrics(tracer, rounds, rec.traced_s / rounds, overhead, accuracy)
            meta["computed_per_call"] = computed_per_call(tracer)
        else:
            metrics.update(wl.summarize(rec))
            metrics["setup_s"] = (import_s + median(setup_times), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            meta["samples"] = dict(rec.samples)
    except Exception:  # any failure is reported as a failed operation
        check.expect(False, traceback.format_exc(limit=4).strip())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, meta, check, tracer


def main() -> int:
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        import_s = import_kgvec()
    except ImportError as exc:
        print(f"perfbench: cannot import kgvec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    metrics, meta, check, tracer = run(args, import_s)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if not check.failures:
        check.expect(set(units) <= set(metrics),
                     f"BENCHMARK.json metrics not measured: {sorted(set(units) - set(metrics))}")
    blas = blas_info()
    check.expect(blas["threads"] <= (os.cpu_count() or 1), f"BLAS uses {blas['threads']} threads")

    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_sha=git_sha(), src_sha256=source_digest(), python=platform.python_version(),
        numpy=np.__version__, blas=blas, nproc=os.cpu_count(), machine=platform.machine(),
        attempted=check.attempted, failures=check.failures,
    )
    result = {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": float(metrics[k][0]), "unit": units[k]} for k in units if k in metrics},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.json", {"meta": meta})
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1), encoding="utf-8")

    for failure in check.failures:
        print(f"FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<52} {value:.6g} {unit}")
    print(f"{args.workload}  {'error_rate':<52} {check.failed / max(check.attempted, 1):.6g} ratio "
          f"({check.failed} of {check.attempted})")
    print("# meta " + json.dumps(meta, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
