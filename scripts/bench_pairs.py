#!/usr/bin/env python3
"""Compare this tree with a base commit in alternating benchmark pairs.

    python3 scripts/bench_pairs.py --base HEAD~1 --label pr29 --pairs 5 --seconds 10

For each workload of BENCHMARK.json, each pair runs
`perfbench/run.py --workload W --seed 1 --seconds T --trace 0` once on
this tree and once on a `git worktree` of the base commit, made in a
temporary directory and removed afterwards; half of the pairs start on
each tree.  Both trees import the package from source: the runs write
no bytecode, and this tree's `__pycache__` directories under `src/` and
`perfbench/` are removed first, since a warm cache alone lowers the
`census` peak RSS by about 1.2 MB.

`BENCH_<label>.json`, written to this tree's root, holds for each
workload and tree the median and quartiles of every end-to-end metric,
and for each metric the winner of every pair; also the CPU count, the
Python and numpy versions, and both commits.  A run that does not end
`correct: true` with 0 failed is named under `bad_runs`; no pair is
dropped.  Nothing under `perfbench/` is edited.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TREES = ("base", "head")


def pair_trees(pair: int) -> tuple[str, str]:
    """The order of the trees in a pair: even pairs start on this tree."""
    return ("head", "base") if pair % 2 == 0 else ("base", "head")


def run_once(tree: Path, workload: str, seconds: float) -> tuple[int, str]:
    """One benchmark run on `tree`, writing no bytecode: its exit code and
    last stdout line."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def _verdict(code: int, line: str):
    """The parsed result line, or None and why the run does not count."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, f"exit code {code}, no result line"
    if code != 0 or result.get("correct") is not True or result.get("failed") != 0:
        return result, (f"exit code {code}, correct {result.get('correct')}, "
                        f"failed {result.get('failed')} of {result.get('attempted')}")
    return result, None


def build_report(runs: list, end_to_end: list, meta: dict) -> dict:
    """The BENCH file from the runs, each a dict of workload, pair, tree,
    exit code and last stdout line, in the order they ran.

    `end_to_end` is BENCHMARK.json's metric list (name and "better").  A
    run counts in the statistics when its line parses; one that is not
    correct with 0 failed is also named under `bad_runs`.  A pair wins
    a metric for the tree that reads better on it, and ties go to
    neither.
    """
    bad_runs, values = [], {}  # (workload, tree, metric) -> {pair: value}
    for run in runs:
        result, why = _verdict(run["code"], run["line"])
        if why:
            bad_runs.append({k: run[k] for k in ("workload", "pair", "tree")} | {"why": why})
        for name, metric in (result or {}).get("metrics", {}).items():
            values.setdefault((run["workload"], run["tree"], name), {})[run["pair"]] = metric["value"]
    workloads = {}
    for name in dict.fromkeys(run["workload"] for run in runs):
        pairs = sorted({run["pair"] for run in runs if run["workload"] == name})
        entry = {"first": [pair_trees(p)[0] for p in pairs]}
        for tree in TREES:
            entry[tree] = {}
            for metric in end_to_end:
                got = values.get((name, tree, metric["name"]), {})
                if got:
                    q1, median, q3 = np.percentile(list(got.values()), [25, 50, 75]).tolist()
                    entry[tree][metric["name"]] = {
                        "median": median, "q1": q1, "q3": q3, "runs": len(got),
                    }
        wins = {}
        for metric in end_to_end:
            base = values.get((name, "base", metric["name"]), {})
            head = values.get((name, "head", metric["name"]), {})
            sign = 1 if metric["better"] == "higher" else -1
            winners = []
            for p in pairs:
                if p not in base or p not in head or base[p] == head[p]:
                    winners.append(None)
                else:
                    winners.append("head" if sign * (head[p] - base[p]) > 0 else "base")
            wins[metric["name"]] = {
                "better": metric["better"],
                "head": winners.count("head"),
                "base": winners.count("base"),
                "pairs": winners,
            }
        entry["wins"] = wins
        workloads[name] = entry
    return {**meta, "workloads": workloads, "bad_runs": bad_runs}


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    base_commit = _git(ROOT, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"head": ROOT, "base": work / "base"}
    for cache in [*ROOT.glob("src/**/__pycache__"), *ROOT.glob("perfbench/**/__pycache__")]:
        shutil.rmtree(cache)
    runs = []
    try:
        _git(ROOT, "worktree", "add", "--detach", str(trees["base"]), base_commit)
        for name in (w["name"] for w in benchmark["workloads"]):
            for pair in range(args.pairs):
                for tree in pair_trees(pair):
                    code, line = run_once(trees[tree], name, args.seconds)
                    runs.append({"workload": name, "pair": pair, "tree": tree,
                                 "code": code, "line": line})
                    print(f"{name} pair {pair} {tree}: {line}", file=sys.stderr)
    finally:
        if trees["base"].exists():
            _git(ROOT, "worktree", "remove", "--force", str(trees["base"]))
        shutil.rmtree(work)
    meta = {
        "label": args.label,
        "base": {"ref": args.base, "commit": base_commit},
        "head": {"commit": _git(ROOT, "rev-parse", "HEAD"),
                 "dirty": bool(_git(ROOT, "status", "--porcelain", "--untracked-files=no"))},
        "seed": 1,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    report = build_report(runs, benchmark["end_to_end"], meta)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if report["bad_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
