"""dynreg benchmark: edit latency and set-up time across the trichotomy.

    python3 perfbench/run.py --workload edit-sg --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the library is imported from ./src. Each
workload's inputs come from --seed (workloads.py). Every measurement runs in
a fresh worker process (worker.py) so that set-up pays the library's
per-process caches the way a new user process does:

  stream workloads  3 workers, each sets up once and then edits for
                    seconds/3, alternating chunks timed per edit and chunks
                    timed as a whole loop;
  corpus-setup      one worker per pass over the corpus, at least 3 passes
                    and until --seconds have gone by.

Each worker gets its own word and edit cycle, drawn from the seed. Times
are scaled to a fixed machine speed measured next to them (worker.probe).

--trace 1 instead runs one untraced and one traced worker over a fixed
amount of work (set-up plus the first 16384 edits of each language's
cycle) and reports per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170          # whole run, all workers included
WORKERS = 3                 # per run; corpus-setup adds passes until --seconds

END_TO_END = {   # name -> unit; the set BENCHMARK.json declares
    "setup_s": "s",
    "edit_us_p50": "us",
    "edit_us_p99": "us",
    "edits_per_s": "1/s",
    "rss_peak_mib": "MiB",
}
KINDS = ("zg", "window", "sg", "sg-downgraded", "zg-downgraded", "kary", "other")
PER_LAYER = {   # name -> unit
    "syntactic.dfa_s": "s",
    "syntactic.minimize_s": "s",
    "syntactic.monoid_s": "s",
    "syntactic.stable_s": "s",
    "syntactic.classify_s": "s",
    "syntactic.block_image_us_per_edit": "us",
    "algebra.check_variety_calls": "count",
    "algebra.check_variety_s": "s",
    "algebra.zg_certificate_s": "s",
    "algebra.green_rees_s": "s",
    "engines.plan_search_s": "s",
    "engines.plan_search_share": "ratio",
    "engines.layer_plan_s": "s",
    "engines.build_s": "s",
    "engines.update_self_us": "us",
    "engines.query_us": "us",
    "engines.inner_update_us": "us",
    "engines.ops_per_edit_mean": "count",
    "engines.ops_per_edit_max": "count",
    **{f"engines.kind.{k}": "count" for k in KINDS},
    "veb.build_s": "s",
    "veb.calls_per_edit": "count",
    "veb.find_prev_calls_per_edit": "count",
    "veb.probes_per_edit": "count",
    "veb.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def kind_of(lang):
    """Short engine kind, e.g. 'sg-downgraded'; inner downgrades count too."""
    kind = lang["kind"]
    short = kind[kind.index("[") + 1 : -1] if "[" in kind else kind
    if "downgraded" in (lang["inner_kind"] or "") and "downgraded" not in short:
        short = f"{short}-downgraded"
    return short if short in KINDS else "other"


def run_worker(task, started):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    left = TIME_LIMIT_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("time limit reached before all workers ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=pickle.dumps(task), capture_output=True, env=env, cwd=ROOT, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError("worker failed:\n" + "\n".join(tail))
    return pickle.loads(proc.stdout)


def tally(results):
    """Answer counts over all workers: attempted, failed, error_rate, the
    share of true answers and the first errors."""
    langs = [lang for r in results for lang in r["languages"]]
    attempted = sum(lang["attempted"] for lang in langs)
    failed = sum(lang["failed"] for lang in langs)
    answered = sum(lang["attempted"] for lang in langs if lang["error"] is None)
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "true_share": sum(lang.get("true", 0) for lang in langs) / answered if answered else 0.0,
        "errors": [lang["error"] for lang in langs if lang["error"]][:5],
    }


def measure(workload, seed, seconds):
    """End-to-end metrics with tracing off; returns (metrics, info).

    Set-up times are medians over workers; edit latencies and throughput
    are pooled over all workers, so they sample the whole run.
    """
    started = time.perf_counter()
    results = []
    corpus = workload == "corpus-setup"
    budget = None if corpus else seconds / WORKERS
    while len(results) < WORKERS or (corpus and time.perf_counter() - started < seconds):
        langs = workloads.make_inputs(workload, seed, len(results))
        results.append(run_worker({"languages": langs, "budget_s": budget, "mode": "plain"}, started))

    done = [[lang for lang in r["languages"] if lang["setup_ns"]] for r in results]
    setups = [[lang["setup_ns"] / 1e9 for lang in w] for w in done]
    lat = np.concatenate([lang["lat"] for w in done for lang in w if "lat" in lang]
                         or [np.zeros(0)])
    whole = [lang["whole"] for w in done for lang in w if "whole" in lang]
    whole_edits = sum(e for e, _, _ in whole)
    if len(lat) < 1000 or not whole_edits:
        raise BenchError(f"too few edits measured ({len(lat)})")
    metrics = {
        "setup_s": statistics.median(sum(s) for s in setups),
        "edit_us_p50": float(np.percentile(lat, 50)) / 1e3,
        "edit_us_p99": float(np.percentile(lat, 99)) / 1e3,
        "edits_per_s": whole_edits / sum(ns for _, ns, _ in whole) * 1e9,
        "rss_peak_mib": max(r["rss_kib"] for r in results) / 1024,
    }
    first = results[0]["languages"]
    lzg = [kind_of(lang) for lang in first if lang.get("cls") == "Q_LZG"]
    info = {
        **tally(results),
        "lang_setup_ms_p50": statistics.median(statistics.median(s) for s in setups) * 1e3,
        "slowdown": sum(raw for _, _, raw in whole) / sum(ns for _, ns, _ in whole),
        "lzg_o1_share": (sum("downgraded" not in k for k in lzg) / len(lzg)) if lzg else None,
        "kinds": sorted({kind_of(lang) for lang in first if "kind" in lang}),
        "samples": {"workers": len(results), "setups": sum(map(len, setups)),
                    "edits_timed": len(lat), "edits_whole": whole_edits},
    }
    return metrics, info


def layers(workload, seed):
    """Per-layer metrics: one untraced and one traced worker, same work."""
    from spans import layer_metrics

    started = time.perf_counter()
    langs = workloads.make_inputs(workload, seed)
    plain = run_worker({"languages": langs, "budget_s": None, "mode": "replay"}, started)
    traced = run_worker({"languages": langs, "budget_s": None, "mode": "traced"}, started)

    def total_ns(r):
        return sum((lang["setup_ns"] or 0) + lang.get("stream_ns", 0) for lang in r["languages"])

    tl = traced["languages"]
    ops = b"".join(lang["ops"].tobytes() for lang in tl if "ops" in lang)
    probes = sum(lang.get("veb_probes", 0) for lang in tl)
    metrics, counts = layer_metrics(traced["spans"], ops, probes, total_ns(traced), total_ns(plain))
    for k in KINDS:
        metrics[f"engines.kind.{k}"] = sum(kind_of(lang) == k for lang in tl if "kind" in lang)
    return metrics, {**tally([plain, traced]), "samples": counts, "missing": traced["missing"]}


def report(workload, metrics, units, info):
    """Print one line per metric, then return the result object."""
    print(f"# workload {workload}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':40s} {info['error_rate']:14.6g} ratio")
    if "lzg_o1_share" in info:
        print(f"{'lang_setup_ms_p50':40s} {info['lang_setup_ms_p50']:14.6g} ms")
        print(f"{'machine slowdown (raw / scaled time)':40s} {info['slowdown']:14.6g} ratio")
        share = info["lzg_o1_share"]
        print(f"{'lzg_o1_share':40s} {'n/a' if share is None else f'{share:14.6g}':>14s} ratio")
        print(f"{'engine kinds':40s} {', '.join(info['kinds'])}")
    print(f"{'true answer share':40s} {info['true_share']:14.6g} ratio")
    print(f"{'samples':40s} {json.dumps(info['samples'])}")
    for err in info["errors"]:
        print(f"error: {err}")
    if info.get("missing"):
        print(f"untraced (absent from this dynreg): {', '.join(info['missing'])}")
    # a stream must see both answers; a corpus language may be trivial
    both = workload == "corpus-setup" or 0.0 < info["true_share"] < 1.0
    correct = info["failed"] == 0 and both
    return {
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dynreg" / "__init__.py").is_file():
        print(f"error: no dynreg sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                metrics, info = layers(name, args.seed)
                results[name] = report(name, metrics, PER_LAYER, info)
            else:
                metrics, info = measure(name, args.seed, args.seconds)
                results[name] = report(name, metrics, END_TO_END, info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
