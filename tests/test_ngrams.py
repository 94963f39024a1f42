"""Stream census and range classifier tests.

The census oracle classifies every window by brute force: build the
prefix digit by digit, tag each position with its word index, and put
each window into the complete/boundary/tail bucket by definition.
"""

import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normfreq import arith, ngrams, reports, words
from normfreq.errors import CapacityError, DegenerateInputError
from normfreq.words import LSF, MSF
from whole_prefix import whole_prefix


@pytest.fixture(scope="module")
def engine():
    return arith.ArithEngine(spf_limit=10_000)


def oracle_census(word_digits, num_digits, k):
    """Window census over the first num_digits of concatenated words."""
    flat, word_of = [], []
    for idx, wd in enumerate(word_digits, 1):
        for d in wd:
            flat.append(d)
            word_of.append(idx)
        if len(flat) >= num_digits:
            break
    assert len(flat) >= num_digits, "need more words"
    flat, word_of = flat[:num_digits], word_of[:num_digits]
    n = word_of[-1]
    consumed = word_of.count(n)
    flush = consumed == len(word_digits[n - 1])
    complete, boundary, tail = {}, {}, {}
    for i in range(num_digits - k + 1):
        w = tuple(flat[i : i + k])
        if word_of[i] != word_of[i + k - 1]:
            bucket = boundary
        elif word_of[i] == n and not flush:
            bucket = tail
        else:
            bucket = complete
        bucket[w] = bucket.get(w, 0) + 1
    return {
        "complete": complete,
        "boundary": boundary,
        "tail": tail,
        "n": n,
        "consumed": consumed,
        "flush": flush,
    }


def as_text(d, g):
    return {words.word_text(w, g): c for w, c in d.items()}


def json_dumps_text(rep):
    """The report as `json.dumps` writes it, every ArrayMap turned into a dict."""
    payload = {key: dict(value) if isinstance(value, reports.ArrayMap) else value
               for key, value in rep.items()}
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# count_stream
# ---------------------------------------------------------------------------


def identity_words(count, g=10, order=MSF):
    return [words.digits_of(m, g, order) for m in range(1, count + 1)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("g", [2, 10])
@pytest.mark.parametrize("order", [MSF, LSF])
def test_count_stream_matches_oracle(engine, monkeypatch, k, extra, g, order):
    # the cut lands on the end of word 100 (extra 0) or 1 or 2 digits into
    # word 101; k above the one-digit words makes windows span three or
    # more words, and 7-window chunks end inside runs of crossing windows
    monkeypatch.setattr(ngrams, "_CHUNK", 7)
    word_list = identity_words(110, g, order)
    num = sum(map(len, word_list[:100])) + extra
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), num, g=g, k=k, order=order)
    want = oracle_census(word_list, num, k)
    total = {}
    for bucket in ("complete", "boundary", "tail"):
        for w, c in want[bucket].items():
            total[w] = total.get(w, 0) + c
    assert rep["counts"] == as_text(total, g)
    assert rep["complete_counts"] == as_text(want["complete"], g)
    assert rep["boundary_counts"] == as_text(want["boundary"], g)
    assert rep["tail_counts"] == as_text(want["tail"], g)
    assert rep["boundary"] == sum(want["boundary"].values())
    assert rep["tail"] == sum(want["tail"].values())
    assert rep["n"] == want["n"] == 100 + (extra > 0)
    assert rep["consumed_of_final"] == want["consumed"]
    assert rep["flush"] == want["flush"] == (extra == 0)
    assert rep["windows"] == num - k + 1


STREAM_CHAINS = [
    (), (arith.PHI,), (arith.SIGMA,), (arith.LAMBDA,), (arith.SUM_PROPER,),
    (arith.RADICAL,), (arith.TWO_SQUARES,), (arith.gstar([2, 3]),),
    (arith.PHI, arith.SIGMA), (arith.SIGMA, arith.SIGMA),
]


@pytest.mark.parametrize("domain", [arith.NATURALS, arith.PRIMES], ids=lambda d: d.value)
@pytest.mark.parametrize(
    "chain", STREAM_CHAINS, ids=lambda c: ".".join(fn.describe() for fn in c) or "id"
)
def test_streamed_count_matches_a_recount_across_block_and_chunk_edges(
    monkeypatch, chain, domain
):
    # the prefix is folded in value blocks of 7 and 1,000 indices and
    # tallied in 7-window chunks, dense up to k = 3 and sparse above; its
    # windows and the eps verdicts of its complete words are recounted
    # from the pointwise words.  The cut falls inside a word, and at the
    # end of a full block of 7 values.
    spec = arith.CompositionSpec(chain, domain)
    eng = arith.ArithEngine()
    monkeypatch.setattr(ngrams, "_CHUNK", 7)
    monkeypatch.setattr(ngrams, "DENSE_LIMIT", 1000)
    for order in (MSF, LSF):
        values = [eng.eval_composition(spec, i) for i in range(1, 141)]
        word_list = [words.digits_of(v, 10, order) for v in values]
        ends = list(itertools.accumulate(map(len, word_list)))
        # a block may end early, at the forecast of the cut: find a cut
        # after a word end whose final block is full
        monkeypatch.setattr(words, "_BLOCK", 7)
        on_edge = next(
            num for num in ends[80:]
            if len((last := list(words.prefix_blocks(eng, spec, num, 10, order))[-1]).values)
            == 7 and not last.cut_inside
        )
        inside = next((end - 1 for end, word in zip(ends[80:], word_list[80:]) if len(word) > 1),
                      on_edge)  # s and gstar on the primes have 1-digit words only
        for block, num in itertools.product((7, 1000), (on_edge, inside)):
            monkeypatch.setattr(words, "_BLOCK", block)
            for k in range(1, 7):
                eps = 0.3 if k <= 2 else None
                rep = ngrams.count_stream(eng, spec, num, k=k, order=order, eps=eps)
                want = oracle_census(word_list, num, k)
                for bucket in ("complete", "boundary", "tail"):
                    assert rep[f"{bucket}_counts"] == as_text(want[bucket], 10), (order, num, k)
                assert (rep["n"], rep["consumed_of_final"], rep["flush"]) == (
                    want["n"], want["consumed"], want["flush"])
                if eps is not None:
                    whole = values[: want["n"] - (not want["flush"])]
                    assert rep["bad_count"] == sum(
                        not words.is_eps_k_normal(v, eps, k) for v in whole)


def test_count_stream_peak_memory_is_flat_in_the_prefix_length():
    # phi at k = 1: one value block and one window chunk at a time, so four
    # times the digits take about the same peak
    peaks = []
    for num in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            ngrams.count_stream(arith.ArithEngine(), arith.CompositionSpec((arith.PHI,)), num)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_sparse_tally_peak_memory_is_flat_in_the_prefix_length(monkeypatch):
    # the 64 base-2 words of length 6 as sparse tallies of 1,000-window
    # chunks: the chunks' pieces are folded into the running tallies once
    # they outgrow them, so four times the digits take about the same peak
    monkeypatch.setattr(ngrams, "DENSE_LIMIT", 0)
    monkeypatch.setattr(ngrams, "_CHUNK", 1000)
    monkeypatch.setattr(words, "_BLOCK", 1000)
    peaks = []
    for num in (2 * 10**5, 8 * 10**5):
        tracemalloc.start()
        try:
            ngrams.count_stream(arith.ArithEngine(), arith.CompositionSpec(), num, g=2, k=6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_stream_tail_spans_chunks(engine, monkeypatch, k):
    # the final word 1023 (ten ones in base 2) is cut after 9 digits, so
    # its tail windows fill several 2-window chunks
    monkeypatch.setattr(ngrams, "_CHUNK", 2)
    word_list = identity_words(1023, 2)
    num = sum(map(len, word_list[:1022])) + 9
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), num, g=2, k=k)
    want = oracle_census(word_list, num, k)
    assert rep["tail"] == 9 - k + 1
    assert rep["tail_counts"] == as_text(want["tail"], 2) == {"1" * k: 9 - k + 1}
    assert rep["complete_counts"] == as_text(want["complete"], 2)
    assert rep["boundary_counts"] == as_text(want["boundary"], 2)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("num", [40, 189, 190, 1000])
def test_count_stream_window_partition(engine, k, num):
    # every window lands in exactly one bucket
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), num, g=10, k=k)
    assert sum(rep["counts"].values()) == rep["windows"]
    complete_total = sum(rep["complete_counts"].values())
    assert complete_total + rep["boundary"] + rep["tail"] == rep["windows"]
    for w, c in rep["counts"].items():
        assert c == (
            rep["complete_counts"].get(w, 0)
            + rep["boundary_counts"].get(w, 0)
            + rep["tail_counts"].get(w, 0)
        )


def test_count_stream_k1_has_no_boundary(engine):
    rep = ngrams.count_stream(engine, arith.CompositionSpec((arith.PHI,)), 500, k=1)
    assert rep["boundary"] == 0
    assert rep["boundary_counts"] == {}


def test_count_stream_flush_has_no_tail(engine):
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), 17, k=2)
    assert rep["flush"] and rep["tail"] == 0
    rep2 = ngrams.count_stream(engine, arith.CompositionSpec(), 16, k=2)
    assert not rep2["flush"] and rep2["tail"] >= 0
    assert rep2["consumed_of_final"] == 1


def test_count_stream_base2_lsf(engine):
    spec = arith.CompositionSpec((arith.PHI,))
    rep = ngrams.count_stream(engine, spec, 300, g=2, k=2, order=LSF)
    # oracle over phi words in least-significant-first order
    wl = [words.digits_of(arith.phi(engine.factorize(m)), 2, LSF) for m in range(1, 500)]
    want = oracle_census(wl, 300, 2)
    assert rep["complete_counts"] == as_text(want["complete"], 2)
    assert rep["boundary_counts"] == as_text(want["boundary"], 2)
    assert rep["tail_counts"] == as_text(want["tail"], 2)
    assert rep["order"] == "lsf"


@pytest.mark.parametrize("threads", [1, 2, 5])
def test_blocked_map_yields_blocks_in_order(threads, monkeypatch):
    monkeypatch.setattr(words, "_BLOCK", 5)

    def work(lo, hi):
        time.sleep((23 - lo) / 1000)  # on a pool, early blocks finish last
        return lo, hi

    got = list(ngrams.blocked_map(work, 23, threads))
    assert got == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]
    assert list(ngrams.blocked_map(work, 0, threads)) == []


def test_blocked_map_takes_single_thread_blocks_lazily(monkeypatch):
    # 10^15 one-entry blocks: a list of their edges would never fit
    monkeypatch.setattr(words, "_BLOCK", 1)
    tracemalloc.start()
    try:
        blocks = ngrams.blocked_map(lambda lo, hi: (lo, hi), 10**15, 1)
        first = [next(blocks) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(0, 1), (1, 2), (2, 3)]
    assert peak < 1 << 16


def test_blocked_map_keeps_few_pooled_blocks_in_flight(monkeypatch):
    # the twin of the test above: a pool of 2 submits a few blocks ahead
    # of the caller; submitting all 10^5 at once held 156 MiB
    monkeypatch.setattr(words, "_BLOCK", 1)
    tracemalloc.start()
    try:
        blocks = ngrams.blocked_map(lambda lo, hi: (lo, hi), 10**5, 2)
        first = [next(blocks) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
        blocks.close()
    finally:
        tracemalloc.stop()
    assert first == [(0, 1), (1, 2), (2, 3)]
    assert peak < 1 << 16


@pytest.mark.parametrize("threads", [0, -3])
def test_blocked_map_checks_threads_at_call_time(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        ngrams.blocked_map(lambda lo, hi: (lo, hi), 10, threads)


@pytest.mark.parametrize("dense_limit", [ngrams.DENSE_LIMIT, 1])
def test_count_stream_fewer_digits_than_k(engine, monkeypatch, dense_limit):
    monkeypatch.setattr(ngrams, "DENSE_LIMIT", dense_limit)
    spec = arith.CompositionSpec((arith.PHI,))
    rep = ngrams.count_stream(engine, spec, 2, k=3)
    assert rep["windows"] == 0
    tallies = ("counts", "complete_counts", "boundary_counts", "tail_counts")
    assert [rep[name] for name in tallies] == [{}, {}, {}, {}]
    assert rep["freqs"] == {}
    assert rep["max_dev"] == 0.0
    assert reports.canonical_json(rep) == json_dumps_text(rep)


def test_count_stream_payload_keeps_the_traced_attributes(engine):
    # perfbench/tracing.py reads the window count and the tallies as attributes
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), 50, k=2)
    assert isinstance(rep, dict) and rep.window_count == rep["windows"] == 49
    for name in ("counts", "complete_counts", "boundary_counts", "tail_counts"):
        assert getattr(rep, name) is rep[name]


def test_count_stream_picks_sparse_tallies_past_the_chunk_size(engine):
    # 2^21 words and 2000 digits: three dense int64 tables per chunk plus
    # the running ones would take about 100 MB; the sparse tallies a few
    assert ngrams.DENSE_LIMIT == ngrams._CHUNK and 10**6 <= ngrams.DENSE_LIMIT
    tracemalloc.start()
    try:
        rep = ngrams.count_stream(engine, arith.CompositionSpec(), 2000, g=2, k=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["windows"] == 1980 and sum(rep["counts"].values()) == 1980
    assert peak < 16 << 20


def test_count_stream_sparse_matches_dense(engine, monkeypatch):
    spec = arith.CompositionSpec((arith.PHI,))
    dense = ngrams.count_stream(engine, spec, 800, g=10, k=2)
    monkeypatch.setattr(ngrams, "DENSE_LIMIT", 0)
    sparse = ngrams.count_stream(engine, spec, 800, g=10, k=2)
    assert dense == sparse


@pytest.mark.parametrize("g,k", [(g, k) for g in (2, 3, 10, 16, 300) for k in (1, 2, 3)])
@pytest.mark.parametrize("order", [MSF, LSF])
@pytest.mark.parametrize("flush", [True, False])
def test_count_stream_sparse_and_dense_reports_are_byte_identical(
    engine, monkeypatch, g, k, order, flush
):
    # above g = 10 the dotted labels sort apart from the codes; small
    # chunks make both branches merge several chunk tallies.  Both
    # reports are also written exactly as json.dumps writes their dicts,
    # and project to the CSV of their JSON file.
    monkeypatch.setattr(ngrams, "_CHUNK", 97)
    spec = arith.CompositionSpec((arith.PHI,))
    num = 600
    while whole_prefix(engine, spec, num, g, order).flush != flush:
        num += 1
    monkeypatch.setattr(ngrams, "DENSE_LIMIT", 0)
    sparse = ngrams.count_stream(engine, spec, num, g=g, k=k, order=order)
    assert sparse["flush"] == flush
    assert isinstance(sparse["counts"], reports.ArrayMap)
    assert reports.canonical_json(sparse) == json_dumps_text(sparse)
    assert reports.to_csv(sparse) == reports.to_csv(json.loads(json_dumps_text(sparse)))
    if g**k <= 10**5:  # a dense table of 300^3 int64 tallies is too large here
        monkeypatch.setattr(ngrams, "DENSE_LIMIT", g**k)
        dense = ngrams.count_stream(engine, spec, num, g=g, k=k, order=order)
        assert reports.canonical_json(dense) == reports.canonical_json(sparse)


@pytest.mark.parametrize("dense_limit", [ngrams.DENSE_LIMIT, 0])
def test_count_stream_max_dev_counts_absent_words(engine, monkeypatch, dense_limit):
    # 1..200 are 200 one-digit words of base 300, each seen once: a present
    # word deviates by 1/200 - 1/300, an absent one by 1/300
    monkeypatch.setattr(ngrams, "DENSE_LIMIT", dense_limit)
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), 200, g=300, k=1)
    assert len(rep["counts"]) == 200
    assert rep["max_dev"] == 1 / 300


def test_count_stream_max_dev_recomputable(engine):
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), 5000, k=1)
    center = 0.1
    devs = [abs(c / rep["windows"] - center) for c in rep["counts"].values()]
    if len(rep["counts"]) < 10:
        devs.append(center)
    assert rep["max_dev"] == pytest.approx(max(devs))


# base 10 has more words than twice the windows of phi's values here (at
# most 3 digits), so its classifier takes the sorted-runs branch; base 2
# takes the dense table, and at k = 3 both
@pytest.mark.parametrize("g", [2, 10])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_stream_bad_count(engine, k, g):
    spec = arith.CompositionSpec((arith.PHI,))
    rep = ngrams.count_stream(engine, spec, 400, g=g, k=k, eps=0.2)
    complete = rep["n"] - (0 if rep["flush"] else 1)
    want = 0
    for m in range(1, complete + 1):
        v = arith.phi(engine.factorize(m))
        if not words.is_eps_k_normal(v, 0.2, k, g):
            want += 1
    assert rep["bad_count"] == want
    assert ngrams.count_stream(engine, spec, 400, g=g, k=k)["bad_count"] is None


def test_count_stream_report_json_stable(engine):
    spec = arith.CompositionSpec((arith.LAMBDA,))
    a = ngrams.count_stream(engine, spec, 600, g=10, k=2, eps=0.3)
    b = ngrams.count_stream(engine, spec, 600, g=10, k=2, eps=0.3)
    assert reports.canonical_json(a) == reports.canonical_json(b)
    for key in ("N", "n", "g", "k", "order", "freqs", "max_dev", "boundary", "tail", "bad_count"):
        assert key in a
    assert a["N"] == 600 and a["g"] == 10 and a["k"] == 2


def test_freqs_round_as_python_division(engine):
    # counts and windows between 2^52 and 2^53: every int is a float64,
    # so one correctly rounded division gives Python's c / w
    rng = np.random.default_rng(5)
    windows = 2**53 - 12345
    counts = rng.integers(2**52, windows, size=3000, dtype=np.int64)
    labels = np.array([b"%04d" % i for i in range(len(counts))])
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), 50, k=1)
    rep["windows"] = windows
    rep["counts"] = reports.ArrayMap(labels, counts)
    rep["freqs"] = freqs = ngrams.frequencies(rep["counts"], windows)
    assert list(freqs) == [label.decode() for label in labels.tolist()]
    assert [float.__repr__(f) for f in freqs.values()] == [
        float.__repr__(c / windows) for c in counts.tolist()
    ]
    assert reports.canonical_json(rep) == json_dumps_text(rep)


def test_count_stream_rejects_codes_beyond_int64(engine):
    # 10^20 window codes would wrap int64 and misreport the words
    with pytest.raises(CapacityError):
        ngrams.count_stream(engine, arith.CompositionSpec(), 200, g=10, k=20)


def test_count_stream_long_words_match_literal_windows(engine):
    # 10^18 codes still fit int64; the sparse path must report the real windows
    text = "".join(str(m) for m in range(1, 200))[:200]
    want = {}
    for i in range(len(text) - 18 + 1):
        want[text[i : i + 18]] = want.get(text[i : i + 18], 0) + 1
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), 200, g=10, k=18)
    assert rep["windows"] == 183
    assert rep["counts"] == want


@pytest.mark.parametrize("g, k", [(2, 63), (16, 15)])
def test_count_stream_codes_at_the_int64_edge(engine, g, k):
    # g^k = 2^63 is the largest code range accepted, and 16^15 = 2^60
    digits = []
    m = 1
    while len(digits) < 300:
        word = []
        n = m
        while n:
            n, digit = divmod(n, g)
            word.append(digit)
        digits += word[::-1]
        m += 1
    want = {}
    for i in range(300 - k + 1):
        label = words.word_text(digits[i : i + k], g)
        want[label] = want.get(label, 0) + 1
    rep = ngrams.count_stream(engine, arith.CompositionSpec(), 300, g=g, k=k)
    assert rep["windows"] == 300 - k + 1
    assert rep["counts"] == want


def test_count_stream_validates(engine):
    with pytest.raises(ValueError):
        ngrams.count_stream(engine, arith.CompositionSpec(), 0)
    with pytest.raises(ValueError):
        ngrams.count_stream(engine, arith.CompositionSpec(), 10, k=0)


# ---------------------------------------------------------------------------
# classification and meager fits
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_checkpoint_counts_match_one_whole_mask(data):
    # blocks of 8: checkpoints at 1, on block edges and between them, with
    # the blocks on the calling thread or a pool
    block = 8
    limit = data.draw(st.integers(min_value=1, max_value=70), label="limit")
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=limit, max_size=limit)))
    edges = data.draw(st.sets(st.sampled_from(range(block, limit + block, block))), label="edges")
    others = data.draw(st.sets(st.integers(min_value=1, max_value=limit)), label="others")
    cps = sorted(({1, limit} | edges | others) & set(range(1, limit + 1)))
    threads = data.draw(st.sampled_from([1, 2]), label="threads")
    running = np.cumsum(mask)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "_BLOCK", block)
        got = ngrams.checkpoint_counts(lambda lo, hi: mask[lo:hi], cps, threads)
    assert got == [int(running[c - 1]) for c in cps]


def test_classify_one_checkpoint_matches_pointwise():
    for eps, k, g, limit in ((0.2, 1, 2, 300), (0.3, 2, 2, 300), (0.2, 1, 10, 200)):
        want = sum(1 for m in range(1, limit + 1) if not words.is_eps_k_normal(m, eps, k, g))
        assert ngrams.classify_checkpoints(eps, k, g, [limit]) == [want]


def test_classify_one_digit_regime():
    # with eps <= 1 - 1/g no single-digit integer can pass, so all of
    # 1..9 count as bad in base 10
    assert ngrams.classify_checkpoints(0.2, 1, 10, [9]) == [9]


def test_classify_checkpoints_cumulative():
    cps = [10, 50, 100, 400]
    got = ngrams.classify_checkpoints(0.25, 1, 2, cps)
    assert got == [ngrams.classify_checkpoints(0.25, 1, 2, [c])[0] for c in cps]
    assert all(a <= b for a, b in zip(got, got[1:]))


def test_classify_checkpoints_threads_equivalent():
    # k = 2, so the integers are enumerated through blocked_map
    cps = [7, 99, 250, 613]
    one = ngrams.classify_checkpoints(0.3, 2, 2, cps, threads=1)
    many = ngrams.classify_checkpoints(0.3, 2, 2, cps, threads=5)
    assert one == many


def test_classify_checkpoints_threads_across_block_edge():
    # 65536 is the last integer of the first fixed block
    cps = [10, 65535, 65536, 65537]
    flags = [not words.is_eps_k_normal(m, 0.1, 2, 2) for m in range(1, cps[-1] + 1)]
    want = [sum(flags[:c]) for c in cps]
    for threads in (1, 2, 5):
        assert ngrams.classify_checkpoints(0.1, 2, 2, cps, threads=threads) == want
    # the first block's total carries over with no checkpoint at its end
    assert ngrams.classify_checkpoints(0.1, 2, 2, [10, 65537]) == [want[0], want[-1]]


def test_classify_checkpoints_counts_k1_without_the_kernel(monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("k = 1 enumerated")

    monkeypatch.setattr(words, "eps_k_bad_mask", no_kernel)
    cps = [10**2, 10**3, 10**4, 10**5, 10**6, 10**18]
    got = ngrams.classify_checkpoints(0.05, 1, 2, cps)
    assert got == [86, 825, 6775, 69118, 596265, 415_002_687_332_098_442]


def test_classify_checkpoints_refuses_past_its_range(monkeypatch):
    monkeypatch.setattr(ngrams, "ENUMERATION_CAP", 100)
    want = sum(not words.is_eps_k_normal(m, 0.3, 2, 2) for m in range(1, 101))
    assert ngrams.classify_checkpoints(0.3, 2, 2, [100]) == [want]
    with pytest.raises(CapacityError, match=r"limit 101 at k = 2 .* enumeration cap of 100;"):
        ngrams.classify_checkpoints(0.3, 2, 2, [50, 101])
    # k = 1 is counted, not enumerated, so the cap does not apply
    assert ngrams.classify_checkpoints(0.3, 1, 2, [101]) == [
        sum(not words.is_eps_k_normal(m, 0.3, 1, 2) for m in range(1, 102))
    ]
    # the accepted range ends at int64 for every k
    assert 0 < ngrams.classify_checkpoints(0.3, 1, 2, [2**63 - 1])[0] < 2**63 - 1
    for k in (1, 2):
        with pytest.raises(CapacityError, match=r"limit 9223372036854775808 is past the int64"):
            ngrams.classify_checkpoints(0.3, k, 2, [2**63])


def test_classify_checkpoints_validates():
    with pytest.raises(ValueError):
        ngrams.classify_checkpoints(0.2, 1, 2, [])
    with pytest.raises(ValueError):
        ngrams.classify_checkpoints(0.2, 1, 2, [10, 10])
    with pytest.raises(ValueError):
        ngrams.classify_checkpoints(0.2, 1, 2, [5, 3])
    # a bad k, base or eps is a usage error even past the enumeration cap
    for eps, k, g in ((0.2, 0, 2), (0.2, 2, 1), (0.0, 2, 2), (float("nan"), 1, 2)):
        with pytest.raises(ValueError):
            ngrams.classify_checkpoints(eps, k, g, [10**10])


def test_fit_meager_exponent_recovers_power_law():
    xs = [100, 10_000, 1_000_000]
    counts = [20, 200, 2000]  # 2 * sqrt(x)
    fit = ngrams.fit_meager_exponent(xs, counts)
    assert fit.delta == pytest.approx(0.5, abs=1e-12)
    assert max(abs(r) for r in fit.residuals) < 1e-12
    assert np.exp(fit.intercept) == pytest.approx(2.0)


def test_fit_meager_exponent_skips_zero_counts():
    fit = ngrams.fit_meager_exponent([10, 100, 1000, 10000], [0, 10, 100, 1000])
    assert fit.delta == pytest.approx(1.0, abs=1e-12)


def test_fit_meager_exponent_degenerate():
    with pytest.raises(DegenerateInputError):
        ngrams.fit_meager_exponent([10, 100], [0, 0])
    with pytest.raises(DegenerateInputError):
        ngrams.fit_meager_exponent([10, 100], [0, 5])
    with pytest.raises(ValueError):
        ngrams.fit_meager_exponent([10], [1, 2])


# ---------------------------------------------------------------------------
# convergence trend script
# ---------------------------------------------------------------------------


def run_trend(*argv):
    script = Path(__file__).resolve().parents[1] / "scripts" / "convergence_trend.py"
    # the child imports the same package as this process, installed or from src/
    src = str(Path(ngrams.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("k", ["1", "2"])
def test_convergence_trend_is_deterministic_across_runs_and_threads(k):
    # at k = 2 and 10^5 the classifier runs two fixed blocks, so two threads
    # split the work (k = 1 takes the digit DP, which runs no blocks)
    runs = [run_trend("--max", "5", "--k", k, "--threads", t) for t in ("1", "1", "2")]
    assert [proc.returncode for proc in runs] == [0, 0, 0]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["kind"] == "convergence-trend"
    assert [d["N"] for d in payload["deviations"]] == [100, 1000, 10_000, 100_000]


def test_convergence_trend_out_file_equals_stdout(tmp_path):
    path = tmp_path / "trend.json"
    written = run_trend("--max", "3", "--out", str(path))
    printed = run_trend("--max", "3")
    assert (written.returncode, written.stdout, printed.returncode) == (0, "", 0)
    assert path.read_bytes() == printed.stdout.encode("ascii")
    assert [p.name for p in tmp_path.iterdir()] == ["trend.json"]  # no temporary file left


def test_convergence_trend_threads_zero_exits_before_any_work():
    proc = run_trend("--max", "5", "--threads", "0")
    assert proc.returncode == 2
    assert "threads must be >= 1" in proc.stderr
    assert "N=10^" not in proc.stderr and proc.stdout == ""
