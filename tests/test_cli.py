"""Command-line surface tests.

Each test drives `cli.main` in-process with an argv list and inspects
exit code, captured stdout/stderr, and any files written.  One test
goes through a real subprocess to make sure the module entry point is
wired up.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from normfreq import cli, experiments, ngrams, reports, words
from normfreq.arith import (
    LAMBDA,
    NATURALS,
    PHI,
    PRIMES,
    SIGMA,
    ArithEngine,
    CompositionSpec,
    phi,
)
from normfreq.errors import UnknownFunctionError
from normfreq.words import LSF, digits_of, is_eps_k_normal


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- chain parsing ---


def test_parse_chain_tokens():
    spec = cli.parse_chain("phi.sigma")
    assert spec.chain == (PHI, SIGMA)
    assert cli.parse_chain("lambda").chain == (LAMBDA,)
    assert cli.parse_chain("id").chain == ()
    assert cli.parse_chain("").chain == ()
    assert cli.parse_chain(None).chain == ()


def test_parse_chain_id_is_transparent():
    assert cli.parse_chain("phi.id.sigma").chain == (PHI, SIGMA)


def test_parse_chain_gstar():
    (fn,) = cli.parse_chain("gstar:2,3").chain
    assert fn.primes == frozenset({2, 3})


def test_parse_chain_carries_domain():
    assert cli.parse_chain("phi", PRIMES).domain is PRIMES


@pytest.mark.parametrize("text", ["bogus", "phi..sigma", "gstar:", "gstar:4", "gstar:2;3", "Phi"])
def test_parse_chain_rejects_bad_tokens(text):
    with pytest.raises(UnknownFunctionError):
        cli.parse_chain(text)


# --- stream ---


def test_stream_naturals_prefix(capsys):
    code, out, _ = run(capsys, "stream", "--f", "id", "--domain", "naturals",
                       "--base", "10", "--digits", "17")
    assert code == 0
    assert out == "12345678910111213\n"


def test_stream_primes_prefix(capsys):
    code, out, _ = run(capsys, "stream", "--f", "id", "--domain", "primes",
                       "--base", "10", "--digits", "20")
    assert code == 0
    assert out == "23571113171923293137\n"


def test_stream_phi_prefix(capsys):
    # phi(1..7) = 1,1,2,2,4,2,6
    code, out, _ = run(capsys, "stream", "--f", "phi", "--digits", "7")
    assert (code, out) == (0, "1122426\n")


def test_stream_order_paper_is_least_significant_first(capsys):
    _, lsf_out, _ = run(capsys, "stream", "--f", "id", "--digits", "17", "--order", "lsf")
    _, paper_out, _ = run(capsys, "stream", "--f", "id", "--digits", "17", "--order", "paper")
    assert paper_out == lsf_out
    assert lsf_out == "12345678901112131\n"  # 10, 11, 12, 13 reversed


def test_stream_large_base_prints_dot_separated(capsys):
    code, out, _ = run(capsys, "stream", "--f", "id", "--base", "16", "--digits", "6")
    assert (code, out) == (0, "1.2.3.4.5.6\n")


# --- count ---


def test_count_phi_digit_frequencies(capsys):
    code, out, _ = run(capsys, "count", "--f", "phi", "--domain", "naturals",
                       "--base", "10", "--k", "1", "--digits", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"1": 2, "2": 3, "4": 1, "6": 1}
    assert payload["windows"] == 7


def test_count_matches_library(capsys):
    code, out, _ = run(capsys, "count", "--f", "lambda.phi", "--domain", "primes",
                       "--base", "2", "--k", "2", "--digits", "300")
    assert code == 0
    spec = cli.parse_chain("lambda.phi", PRIMES)
    report = ngrams.count_stream(ArithEngine(), spec, 300, g=2, k=2)
    assert out == reports.canonical_json(report)


@pytest.mark.parametrize(
    "chain,domain,k,digits",
    [
        (chain, domain, 2, 10**4)
        for chain in ("phi", "sigma", "lambda", "s", "rad", "two-squares", "gstar:2",
                      "phi.sigma", "sigma.sigma")
        for domain in ("naturals", "primes")
    ]
    + [("id", "primes", 6, 10**5)],
)
def test_count_report_bytes_match_json_dumps(tmp_path, chain, domain, k, digits):
    path = tmp_path / "report.json"
    assert cli.main(["count", "--f", chain, "--domain", domain, "--k", str(k),
                     "--digits", str(digits), "--report", str(path)]) == 0
    spec = cli.parse_chain(chain, {"naturals": NATURALS, "primes": PRIMES}[domain])
    payload = ngrams.count_stream(ArithEngine(), spec, digits, k=k)
    plain = {key: dict(value) if isinstance(value, reports.ArrayMap) else value
             for key, value in payload.items()}
    want = json.dumps(plain, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert path.read_bytes() == want.encode("ascii")


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (["--f", "id", "--domain", "primes", "--k", "6"],
         "856349b826979e261a19583c6fd314b3f5f2cc73aaf5328bbdd61260246b68b0"),
        (["--f", "phi", "--domain", "naturals", "--k", "2", "--base", "16", "--order", "lsf"],
         "a2400fcbdb1f5139e97f0394f7ba60e2af93a414fc0041caa63b4a319bd82678"),
        (["--f", "sigma.phi", "--domain", "naturals", "--k", "3", "--eps", "0.1"],
         "81d6c148fbcb35d234c67a706113c8db9e4fdc2ab8d68bd4e68fcdccf0020164"),
        (["--f", "lambda", "--domain", "primes", "--k", "12", "--base", "2"],
         "6a78328c1fb8db2e37ecdbb5aff31a9c783499835d41d407044320151ebbe268"),
    ],
    ids=["primes-k6", "phi-base16-lsf", "sigma.phi-eps", "lambda-base2-k12"],
)
def test_count_report_golden_bytes(tmp_path, argv, sha256):
    # the hashes of these report files as the dict-backed writer wrote them
    path = tmp_path / "report.json"
    assert cli.main(["count", *argv, "--digits", "100000", "--report", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_count_report_file_equals_stdout(tmp_path, capsys):
    path = tmp_path / "census.json"
    code, out, _ = run(capsys, "count", "--f", "phi", "--k", "2", "--digits", "500",
                       "--report", str(path))
    assert code == 0 and out == ""
    stored = path.read_text()
    _, stdout_text, _ = run(capsys, "count", "--f", "phi", "--k", "2", "--digits", "500")
    assert stored == stdout_text


def test_count_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(capsys, "count", "--f", "sigma", "--base", "2", "--k", "3",
                   "--digits", "2000", "--report", str(path))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_count_threads_do_not_change_bytes(tmp_path, capsys):
    one, eight = tmp_path / "t1.json", tmp_path / "t8.json"
    base = ["count", "--f", "phi", "--k", "2", "--digits", "5000"]
    assert cli.main(base + ["--threads", "1", "--report", str(one)]) == 0
    assert cli.main(base + ["--threads", "8", "--report", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()


def test_count_eps_adds_bad_count(capsys):
    code, out, _ = run(capsys, "count", "--f", "id", "--k", "1", "--digits", "9",
                       "--eps", "0.2")
    payload = json.loads(out)
    assert payload["eps"] == 0.2
    assert payload["bad_count"] == 9  # every one-digit value fails the strict test


@pytest.mark.parametrize("base", [10, 16])
@pytest.mark.parametrize("cut", ["flush", "mid-word"])
def test_count_eps_bad_count_matches_pointwise(capsys, base, cut):
    engine = ArithEngine()
    values = [phi(engine.factorize(m)) for m in range(1, 301)]
    # the first 300 words end flush; one more digit cuts into phi(301) = 252
    digits = sum(len(digits_of(v, base)) for v in values) + (cut == "mid-word")
    code, out, _ = run(capsys, "count", "--f", "phi", "--base", str(base), "--k", "2",
                       "--digits", str(digits), "--eps", "0.4")
    assert code == 0
    payload = json.loads(out)
    assert payload["flush"] is (cut == "flush")
    complete = payload["n"] if payload["flush"] else payload["n"] - 1
    assert complete == 300
    want = sum(not is_eps_k_normal(v, 0.4, 2, base) for v in values)
    assert 0 < want < complete
    assert payload["bad_count"] == want


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("eps, k, base", [(0.05, 1, 2), (0.3, 2, 2), (0.2, 1, 10), (0.4, 2, 16)])
def test_count_eps_across_block_edges(capsys, monkeypatch, threads, eps, k, base):
    # 7-value blocks put many block edges inside every digit length
    monkeypatch.setattr(ngrams, "_BLOCK", 7)
    code, out, _ = run(capsys, "count", "--base", str(base), "--k", str(k),
                       "--digits", "20000", "--eps", str(eps), "--threads", str(threads))
    assert code == 0
    payload = json.loads(out)
    complete = payload["n"] if payload["flush"] else payload["n"] - 1
    assert complete > 1000
    want = sum(not is_eps_k_normal(v, eps, k, base) for v in range(1, complete + 1))
    assert payload["bad_count"] == want


@pytest.mark.parametrize(
    "argv",
    [
        # no word is complete, so the classifier never sees the -1
        ["count", "--domain", "prime-orders", "--base", "2", "--digits", "1", "--eps", "-1"],
        ["count", "--digits", "100", "--eps", "inf"],
        ["count", "--digits", "100", "--eps", "nan"],
        ["classify", "--eps", "inf", "--limit", "10"],
        ["classify", "--eps", "nan", "--limit", "10"],
        ["classify", "--eps", "0", "--limit", "10"],
    ],
)
def test_bad_eps_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "eps must be finite and > 0" in err


def test_count_checks_eps_before_building_the_prefix(capsys, monkeypatch):
    def no_prefix(*args, **kwargs):
        raise AssertionError("the prefix was built")

    monkeypatch.setattr(words, "truncate", no_prefix)
    code, _, err = run(capsys, "count", "--digits", "100000000", "--eps", "-0.5")
    assert code == 2 and "eps" in err


# --- classify ---


def test_classify_strict_small_range(capsys):
    code, out, _ = run(capsys, "classify", "--eps", "0.2", "--k", "1", "--base", "10",
                       "--limit", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "classification-report"
    assert payload["bad_count"] == 9
    assert payload["bad_fraction"] == 1.0


def test_classify_matches_library(capsys):
    _, out, _ = run(capsys, "classify", "--eps", "0.05", "--k", "1", "--base", "2",
                    "--limit", "200")
    assert json.loads(out)["bad_count"] == ngrams.classify_checkpoints(0.05, 1, 2, [200])[0]


# --- configuration file ---


def test_config_supplies_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# census setup\nf=phi\nbase=10\nk=1\ndigits=7\n")
    code, out, _ = run(capsys, "count", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["counts"] == {"1": 2, "2": 3, "4": 1, "6": 1}


def test_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits=7\nf=phi\n")
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--digits", "3")
    assert code == 0
    assert json.loads(out)["N"] == 3


def test_config_foreign_keys_are_ignored(tmp_path, capsys):
    # one file can drive several subcommands; stream skips census keys
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits=7\nf=phi\nd=12\nexponent=2.0\nthreads=4\n")
    code, out, _ = run(capsys, "stream", "--config", str(cfg))
    assert (code, out) == (0, "1122426\n")
    # the censuses take no threads, so even an invalid value is foreign
    cfg.write_text("threads=0\n")
    code, out, _ = run(capsys, "experiment", "fps", "--limit", "100", "--config", str(cfg))
    assert code == 0
    assert [r["count"] for r in json.loads(out)["rows"]] == [17]


def test_config_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("digits\n")
    code, _, err = run(capsys, "count", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--config", "/nonexistent/run.cfg")
    assert code == 2


# --- capacity ---


def test_census_over_table_budget_exit_code(capsys):
    # the lambda table to 10^9 is refused by its budget check before any allocation
    code, _, err = run(capsys, "experiment", "fps", "--limit", str(10**9))
    assert code == 3
    assert "budget" in err


def test_primes_past_the_sieve_budget_exit_code(capsys):
    # 3*10^9 digits of the primes need a sieve to about 9.6*10^8, far past the default budget
    code, out, err = run(capsys, "count", "--f", "id", "--domain", "primes",
                         "--digits", str(3 * 10**9))
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: prime sieve for limit \d+ needs \d+ bytes, budget is \d+\n", err)


def test_naturals_past_the_domain_budget_exit_code(capsys):
    # 10^10 digits of the naturals start from 10^10/64 domain values, 1.25 GB of int64
    code, out, err = run(capsys, "count", "--f", "id", "--digits", str(10**10))
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: domain values for limit \d+ needs \d+ bytes, budget is \d+\n", err)


def test_memory_error_without_text_exit_code(capsys, monkeypatch):
    # numpy and the interpreter may raise MemoryError with no message
    def out_of_memory(got):
        raise MemoryError()

    monkeypatch.setattr(cli, "_count", out_of_memory)
    code, out, err = run(capsys, "count", "--f", "id", "--digits", "10")
    assert (code, out, err) == (3, "", "error: out of memory\n")


def test_count_wide_window_codes_exit_code(capsys):
    code, _, err = run(capsys, "count", "--f", "id", "--digits", "200", "--k", "20")
    assert code == 3
    assert "int64" in err


# --- experiments through the CLI ---


@pytest.mark.parametrize(
    "argv,library",
    [
        pytest.param(argv, library, id=argv[0])
        for argv, library in [
            (["fps", "--limit", "1000"],
             lambda e: experiments.small_lambda_census(e, [100, 1000])),
            (["divisor", "--f", "sigma", "--d", "12", "--limit", "1000"],
             lambda e: experiments.divisor_preimage_census(e, SIGMA, 12, [100, 1000])),
            (["omega-tail", "--f", "lambda", "--big-k", "2", "--limit", "1000",
              "--checkpoints", "10,500,1000"],
             lambda e: experiments.omega_tail_census(e, LAMBDA, 2, [10, 500, 1000])),
            (["small-value", "--f", "phi.phi", "--theta", "0.5", "--limit", "1000"],
             lambda e: experiments.small_value_census(e, CompositionSpec((PHI, PHI)),
                                                      [100, 1000], theta=0.5)),
            (["thin-preimage", "--f", "phi", "--set", "squares", "--limit", "1000"],
             lambda e: experiments.thin_preimage_census(e, PHI, experiments.THIN_SETS["squares"],
                                                        [100, 1000])),
            (["growth", "--f", "phi.sigma", "--limit", "1000"],
             lambda e: experiments.growth_hypothesis_check(e, CompositionSpec((PHI, SIGMA)),
                                                           1000)),
            (["non-normal", "--primes", "2,3", "--k", "4", "--base", "9", "--digits", "3000",
              "--order", "lsf"],
             lambda e: experiments.non_normality_demo(e, (2, 3), 4, g=9, num_digits=3000,
                                                      order=LSF)),
            (["extremal", "--limit", "1000"],
             lambda e: experiments.extremal_ratio_report(e, 1000)),
            (["domain-density", "--set", "squares", "--exponent", "2", "--limit", "1000"],
             lambda e: experiments.restricted_domain_check(experiments.DENSITY_SETS["squares"],
                                                           "squares", 2.0, [100, 1000])),
        ]
    ],
)
def test_experiment_matches_library(capsys, argv, library):
    # every experiment operation is wired to its library call, options and all
    code, out, _ = run(capsys, "experiment", *argv)
    assert code == 0
    assert out == reports.canonical_json(library(ArithEngine()))


def test_experiment_fps_custom_checkpoints(capsys):
    code, out, _ = run(capsys, "experiment", "fps", "--limit", "500",
                       "--checkpoints", "10,500")
    payload = json.loads(out)
    assert [r["x"] for r in payload["rows"]] == [10, 500]
    assert payload["rows"][0]["count"] == 3  # lambda < sqrt at n = 2, 6, 8


def test_experiment_divisor_needs_single_function(capsys):
    code, _, err = run(capsys, "experiment", "divisor", "--f", "phi.sigma",
                       "--d", "2", "--limit", "100")
    assert code == 2
    assert "exactly one function" in err


def test_experiment_omega_tail_has_no_verdict(capsys):
    _, out, _ = run(capsys, "experiment", "omega-tail", "--f", "phi", "--big-k", "1",
                    "--limit", "100")
    row = json.loads(out)["rows"][0]
    assert row["count"] == 95
    assert row["verdict"] is None


def test_experiment_small_value_chain(capsys):
    _, out, _ = run(capsys, "experiment", "small-value", "--f", "phi.phi",
                    "--limit", "10000")
    assert json.loads(out)["rows"][-1]["count"] == 5


def test_experiment_thin_preimage_parts(capsys):
    _, out, _ = run(capsys, "experiment", "thin-preimage", "--f", "phi",
                    "--set", "powers-of-two", "--limit", "1000")
    row = json.loads(out)["rows"][-1]
    assert row["count"] == 54
    assert row["parts"] == {"e1": 14, "e2": 40, "e3": 0}


def test_experiment_growth(capsys):
    _, out, _ = run(capsys, "experiment", "growth", "--f", "id", "--limit", "1000")
    payload = json.loads(out)
    assert payload["max_ratio"] == 1.0
    assert payload["passes"] is True


def test_experiment_non_normal_block(capsys):
    _, out, _ = run(capsys, "experiment", "non-normal", "--primes", "2", "--k", "3",
                    "--digits", "2000")
    payload = json.loads(out)
    assert payload["block"] == "1214121"
    assert payload["observed"] == payload["period_count"]


@pytest.mark.parametrize("base", ["1", "257", "300"])
def test_experiment_non_normal_refuses_base(capsys, monkeypatch, base):
    # one byte per digit: base 300 used to fail on bytes(), base 1 never ended
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the base was checked")

    monkeypatch.setattr(experiments, "truncate", no_work)
    code, _, err = run(capsys, "experiment", "non-normal", "--primes", "2", "--k", "9",
                       "--base", base, "--digits", "100000")
    assert code == 2
    assert "the non-normal demo supports 2 <= g <= 256" in err


def test_experiment_extremal(capsys):
    _, out, _ = run(capsys, "experiment", "extremal", "--limit", "10000")
    payload = json.loads(out)
    assert (payload["argmin_phi"], payload["argmax_sigma"]) == (30, 12)


def test_experiment_domain_density_squares_miss_floor(capsys):
    _, out, _ = run(capsys, "experiment", "domain-density", "--set", "squares",
                    "--exponent", "2", "--limit", "10000")
    rows = json.loads(out)["rows"]
    assert rows[-1] == {"x": 10000, "count": 100, "floor": rows[-1]["floor"],
                        "passes": False}
    assert rows[-1]["floor"] > 100


def test_experiment_domain_density_primes(capsys):
    _, out, _ = run(capsys, "experiment", "domain-density", "--set", "primes",
                    "--exponent", "1", "--limit", "1000")
    rows = json.loads(out)["rows"]
    assert [r["count"] for r in rows] == [25, 168]
    assert all(r["passes"] for r in rows)


def test_experiment_domain_density_checkpoints_past_limit(capsys):
    code, out, _ = run(capsys, "experiment", "domain-density", "--set", "primes",
                       "--limit", "100", "--checkpoints", "10,1000")
    assert code == 0
    assert [(r["x"], r["count"]) for r in json.loads(out)["rows"]] == [(10, 4), (1000, 168)]


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(argv, message, id=" ".join(argv[:2]))
        for argv, message in [
            (["count", "--digits", "50"], "threads must be >= 1"),
            (["classify", "--eps", "0.1", "--limit", "100"], "threads must be >= 1"),
            # the censuses and the block demo take no --threads at all
            (["experiment", "fps", "--limit", "100"], "unrecognized arguments"),
            (["experiment", "non-normal", "--k", "2", "--digits", "50"],
             "unrecognized arguments"),
            (["experiment", "domain-density", "--set", "odd", "--limit", "100"],
             "unrecognized arguments"),
        ]
    ],
)
def test_threads_zero_is_usage_error(capsys, argv, message):
    code, _, err = run(capsys, *argv, "--threads", "0")
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--digits", "3000000"],
        ["classify", "--eps", "0.1", "--limit", "1000000"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_threads_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, source):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --threads was checked")

    monkeypatch.setattr(words, "truncate", no_work)
    monkeypatch.setattr(words, "eps_k_bad_mask", no_work)
    if source == "flag":
        argv = argv + ["--threads", "0"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=0\n")
        argv = argv + ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "threads must be >= 1" in err


def test_experiment_unknown_set(capsys):
    code, _, err = run(capsys, "experiment", "domain-density", "--set", "evens",
                       "--limit", "100")
    assert code == 2
    assert "evens" in err


# --- report projection ---


@pytest.fixture()
def census_file(tmp_path):
    path = tmp_path / "fps.json"
    assert cli.main(["experiment", "fps", "--limit", "1000", "--report", str(path)]) == 0
    return path


def test_report_csv_projection(census_file, capsys):
    code, out, _ = run(capsys, "report", "--in", str(census_file), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,count,bound,ratio,verdict"
    assert lines[1].startswith("100,17,")
    assert lines[2].startswith("1000,88,")


def test_report_json_reemits_same_bytes(census_file, capsys):
    code, out, _ = run(capsys, "report", "--in", str(census_file), "--format", "json")
    assert code == 0
    assert out == census_file.read_text()


def test_report_json_reemits_kgram_report_bytes(tmp_path, capsys):
    # the re-read report holds plain dicts, written by the same line builder
    path = tmp_path / "count.json"
    assert cli.main(["count", "--f", "id", "--domain", "primes", "--k", "6",
                     "--digits", "100000", "--report", str(path)]) == 0
    code, out, _ = run(capsys, "report", "--in", str(path), "--format", "json")
    assert code == 0
    assert out == path.read_text()


def test_report_out_file(census_file, tmp_path, capsys):
    dest = tmp_path / "fps.csv"
    code, out, _ = run(capsys, "report", "--in", str(census_file),
                       "--format", "csv", "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text().startswith("x,count,bound,ratio,verdict\n")


def test_report_kgram_projection(tmp_path, capsys):
    path = tmp_path / "count.json"
    assert cli.main(["count", "--f", "phi", "--k", "1", "--digits", "7",
                     "--report", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "report", "--in", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,count,complete,boundary,tail,freq"
    assert lines[1].startswith("1,2,2,0,0,")


def test_report_unknown_kind_is_usage_error(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text('{"kind": "mystery-report"}\n')
    code, _, err = run(capsys, "report", "--in", str(path))
    assert code == 2
    assert "mystery-report" in err


def test_report_missing_file_is_usage_error(capsys):
    code, _, _ = run(capsys, "report", "--in", "/nonexistent/report.json")
    assert code == 2


# --- exit codes and wiring ---


def test_unknown_function_exits_2(capsys):
    code, _, err = run(capsys, "stream", "--f", "bogus", "--digits", "5")
    assert code == 2
    assert "bogus" in err


def test_missing_required_option_exits_2(capsys):
    code, _, err = run(capsys, "count", "--f", "phi")
    assert code == 2
    assert "--digits" in err


def test_no_subcommand_exits_2(capsys):
    assert run(capsys, )[0] == 2


def test_bad_flag_value_exits_2(capsys):
    assert run(capsys, "count", "--digits", "seven")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_help_lists_the_subcommands(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = re.findall(r"^ {4}(\w+)\s", out, flags=re.MULTILINE)
    assert listed == ["stream", "count", "classify", "experiment", "report"]


def test_module_entry_point():
    # the child imports the same package as this process, installed or from src/
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "normfreq.cli", "stream", "--f", "id", "--digits", "17"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "12345678910111213\n"
    # the package root does not import cli, so runpy has nothing to warn about
    assert proc.stderr == ""
