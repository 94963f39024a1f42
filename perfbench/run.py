#!/usr/bin/env python3
"""normfreq benchmark: one run of one workload, in fresh processes.

    python3 perfbench/run.py --workload prefix-phi-k1 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  A run

1. starts the set-up probe several times (each a fresh interpreter that
   imports normfreq and builds the workload's inputs) and takes the
   median set-up time;
2. starts the measured worker (worker.py), which warms up once and then
   runs operations one at a time, single-threaded, for the run length;
3. checks the warm-up operation's reports against the independent
   oracles in oracles.py; every timed operation must reproduce those
   reports byte for byte, or it counts as failed;
4. prints the result as the last stdout line: with ``--trace 0`` the
   end-to-end metrics, with ``--trace 1`` the per-layer metrics (and
   the trace file goes to ``.perfbench-out/``).

The workloads and their inputs are fixed; ``--seed`` is recorded but
changes nothing, because the program and its inputs are deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = {
    "prefix-phi-k1": {
        "kind": "prefix", "f": "phi", "domain": "naturals", "k": 1, "digits": 3_000_000,
    },
    "prefix-primes-k6": {
        "kind": "prefix", "f": "id", "domain": "primes", "k": 6, "digits": 1_000_000,
    },
    "census": {
        "kind": "census", "limit": 1_000_000, "divisors": [2, 3, 4, 6, 12],
        "eps": 0.05, "classify_limit": 300_000,
    },
}

SETUP_PROBES = 4
DEADLINE_S = 170.0  # a run must end within 180 s

PER_LAYER = [
    # (metric, unit, source): source is ("calls" | "self_s" | "counter", layer or counter)
    ("arith.factorize_calls", "count", ("calls", "arith.factorize")),
    ("arith.factorize_s", "s", ("self_s", "arith.factorize")),
    ("arith.value_stream_self_s", "s", ("self_s", "arith.value_stream")),
    ("words.digits_calls", "count", ("calls", "words.digits")),
    ("words.digits_s", "s", ("self_s", "words.digits")),
    ("arith.sieve_builds", "count", ("counter", "arith.sieve_builds")),
    ("arith.sieve_entries", "count", ("counter", "arith.sieve_entries")),
    ("arith.spf_limit", "count", ("counter", "arith.spf_limit")),
    ("arith.sieve_s", "s", ("self_s", "arith.spf_sieve", "arith.prime_sieve")),
    ("arith.table_builds", "count", ("counter", "arith.table_builds")),
    ("arith.table_entries", "count", ("counter", "arith.table_entries")),
    ("arith.table_s", "s", ("self_s", "arith.table")),
    ("arith.chain_values_s", "s", ("self_s", "arith.chain_values")),
    ("experiments.census_calls", "count", ("calls", "experiments.census")),
    ("experiments.census_self_s", "s", ("self_s", "experiments.census")),
    ("words.classify_calls", "count", ("calls", "words.classify")),
    ("words.classify_s", "s", ("self_s", "words.classify")),
    ("ngrams.classify_self_s", "s", ("self_s", "ngrams.classify")),
    ("ngrams.windows", "count", ("counter", "ngrams.windows")),
    ("ngrams.report_entries", "count", ("counter", "ngrams.report_entries")),
    ("ngrams.count_stream_self_s", "s", ("self_s", "ngrams.count_stream")),
    ("ngrams.materialize_self_s", "s", ("self_s", "ngrams.materialize")),
    ("reports.json_bytes", "bytes", ("counter", "reports.json_bytes")),
    ("reports.json_s", "s", ("self_s", "reports.json")),
    ("cli.self_s", "s", ("self_s", "cli")),
]


def _spawn_worker(config: dict, deadline: float) -> dict:
    """Run worker.py to completion; return its last stdout line, parsed."""
    config = dict(config, spawned=time.monotonic())
    # no stray sieve cache can warm the run; one thread; one str-hash
    # seed, so every run builds its dicts with the same layout
    env = {k: v for k, v in os.environ.items() if k != "NF_CACHE_DIR"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker passed the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check_reference(spec: dict, scratch: Path) -> list[str]:
    """Check the warm-up operation's reports with the independent oracles."""
    if spec["kind"] == "prefix":
        report = json.loads((scratch / "reference.json").read_text(encoding="ascii"))
        stream = f"{spec['f']}@{spec['domain']}"
        return oracles.check_prefix(report, stream, spec["digits"], spec["k"])
    payloads = {
        path.stem: json.loads(path.read_text(encoding="ascii"))
        for path in (scratch / "census").glob("*.json")
    }
    return oracles.check_census(payloads, spec)


def per_layer_metrics(result: dict) -> dict:
    """Per-layer metrics from the traced operations of one run.

    Counts must be the same in every traced operation; times are
    medians over the traced operations.
    """
    traces = result["traces"]
    values = {}
    for metric, unit, (source, *names) in PER_LAYER:
        per_op = []
        for t in traces:
            if source == "calls":
                per_op.append(sum(t["calls"][n] for n in names))
            elif source == "self_s":
                per_op.append(sum(t["self_ns"][n] for n in names) / 1e9)
            else:
                per_op.append(sum(t["counters"].get(n, 0) for n in names))
        if source != "self_s":
            if len(set(per_op)) != 1:
                raise RuntimeError(f"{metric} differs between traced operations: {per_op}")
            values[metric] = (per_op[0], unit)
        else:
            values[metric] = (statistics.median(per_op), unit)
    walls = result["walls"]
    traced = statistics.median(w for w, t in zip(walls, result["traced"]) if t)
    untraced = statistics.median(w for w, t in zip(walls, result["traced"]) if not t)
    values["trace.wall_s"] = (traced, "s")
    values["trace.untraced_wall_s"] = (untraced, "s")
    values["trace.overhead"] = (traced / untraced, "ratio")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True, help="run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "normfreq" / "__init__.py").is_file():
        print(f"error: no normfreq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        config = {
            "root": str(ROOT),
            "scratch": str(scratch),
            "workload": spec,
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        setups = [
            _spawn_worker(dict(config, probe=True), deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        result = _spawn_worker(config, deadline)
        errors = check_reference(spec, scratch)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in errors:
        print(f"oracle: {line}", file=sys.stderr)
    walls = result["walls"]
    attempted = len(walls)
    # a timed operation passes when its reports equal the warm-up's byte
    # for byte and the warm-up's reports passed the oracles
    failed = attempted if errors else sum(not e for e in result["equal"])
    setups.append(result["setup_s"])
    if args.trace:
        metrics = per_layer_metrics(result)
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, **result}) + "\n",
            encoding="ascii",
        )
        if result["missing"]:
            print(f"# trace targets not found: {', '.join(result['missing'])}")
    else:
        busy = sum(walls)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "items_per_s": (result["items"] * attempted / busy, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(
        f"# workload={args.workload} seed={args.seed} ops={attempted} "
        f"walls={[round(w, 4) for w in walls]} setups={[round(s, 4) for s in setups]} "
        f"cpus={result['cpus']} python={result['python']} numpy={result['numpy']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
