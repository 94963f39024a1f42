"""The paired-run driver's report, built from canned result lines."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "better": "lower"},
    {"name": "items_per_s", "better": "higher"},
]


def result_line(wall, items, correct=True, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "items_per_s": {"value": items, "unit": "1/s"}}
    return json.dumps({"correct": correct, "attempted": 9, "failed": failed, "metrics": metrics})


def test_report_holds_quartiles_wins_and_every_bad_run():
    walls = {"head": [1.0, 2.0, 3.0, 4.0], "base": [2.0, 2.0, 5.0, 6.0]}
    items = {"head": [10.0, 10.0, 10.0, 10.0], "base": [9.0, 11.0, 10.0, 9.0]}
    runs = []
    for pair in range(4):
        for tree in bench_pairs.pair_trees(pair):
            line = result_line(walls[tree][pair], items[tree][pair], failed=int(pair == 3))
            runs.append({"workload": "census", "pair": pair, "tree": tree, "code": 0, "line": line})
    runs += [
        {"workload": "prefix", "pair": 0, "tree": "head", "code": 1, "line": ""},
        {"workload": "prefix", "pair": 0, "tree": "base", "code": 0,
         "line": result_line(0.5, 7.0, correct=False, failed=9)},
    ]
    report = bench_pairs.build_report(runs, END_TO_END, {"label": "canned", "cpus": 2})

    assert report["label"] == "canned" and report["cpus"] == 2
    census = report["workloads"]["census"]
    assert census["first"] == ["head", "base", "head", "base"]
    assert census["head"]["wall_s"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": 4}
    assert census["base"]["wall_s"] == {"median": 3.5, "q1": 2.0, "q3": 5.25, "runs": 4}
    # lower wall wins, higher throughput wins, a tie goes to neither
    assert census["wins"]["wall_s"] == {
        "better": "lower", "head": 3, "base": 0, "pairs": ["head", None, "head", "head"]}
    assert census["wins"]["items_per_s"] == {
        "better": "higher", "head": 2, "base": 1, "pairs": ["head", "base", None, "head"]}
    # a run with no result line has no metrics, and its pair no winner
    prefix = report["workloads"]["prefix"]
    assert prefix["head"] == {} and prefix["base"]["wall_s"]["median"] == 0.5
    assert prefix["wins"]["wall_s"]["pairs"] == [None]
    assert report["bad_runs"] == [
        {"workload": "census", "pair": 3, "tree": "base",
         "why": "exit code 0, correct True, failed 1 of 9"},
        {"workload": "census", "pair": 3, "tree": "head",
         "why": "exit code 0, correct True, failed 1 of 9"},
        {"workload": "prefix", "pair": 0, "tree": "head", "why": "exit code 1, no result line"},
        {"workload": "prefix", "pair": 0, "tree": "base",
         "why": "exit code 0, correct False, failed 9 of 9"},
    ]
    assert json.loads(json.dumps(report)) == report
