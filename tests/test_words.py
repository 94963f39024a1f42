"""Digit expansion, normality and digit stream tests.

The normality oracle here re-derives every verdict from the definition:
exhaustive word enumeration, overlapping occurrence scans, and exact
Fraction bounds.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normfreq import arith, ngrams, words
from normfreq.words import LSF, MSF
from whole_prefix import whole_prefix


def oracle_digits(n, g):
    """Schoolbook repeated division, most significant first."""
    out = []
    while n:
        out.append(n % g)
        n //= g
    return tuple(reversed(out))


def oracle_occurrences(digits, w):
    """Count overlapping matches by explicit window comparison."""
    k = len(w)
    return sum(1 for i in range(len(digits) - k + 1) if tuple(digits[i : i + k]) == tuple(w))


def oracle_is_normal(n, eps, k, g):
    """Definition check: every length-k word strictly inside the band."""
    digs = oracle_digits(n, g)
    length = len(digs)
    lo = (Fraction(1, g**k) - Fraction(eps)) * length
    hi = (Fraction(1, g**k) + Fraction(eps)) * length
    for w in itertools.product(range(g), repeat=k):
        c = oracle_occurrences(digs, w)
        if not (lo < c < hi):
            return False
    return True


@pytest.fixture(scope="module")
def engine():
    return arith.ArithEngine(spf_limit=10_000)


# ---------------------------------------------------------------------------
# digits and words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [2, 3, 10, 16, 36])
def test_digits_of_matches_schoolbook(g):
    for n in range(1, 2000):
        assert words.digits_of(n, g) == oracle_digits(n, g)
        assert words.digits_of(n, g, LSF) == oracle_digits(n, g)[::-1]


@given(st.integers(min_value=1, max_value=10**15), st.integers(min_value=2, max_value=36))
@settings(max_examples=300, deadline=None)
def test_digit_length_bound(n, g):
    length = words.digit_length(n, g)
    assert g ** (length - 1) <= n < g**length
    assert length == len(words.digits_of(n, g))


@pytest.mark.parametrize(
    "n,g,expected",
    [(1, 10, 1), (9, 10, 1), (10, 10, 2), (999, 10, 3), (1000, 10, 4), (1, 2, 1), (8, 2, 4)],
)
def test_digit_length_boundaries(n, g, expected):
    assert words.digit_length(n, g) == expected


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=2, max_value=16))
@settings(max_examples=200, deadline=None)
def test_word_value_round_trip(n, g):
    def horner(digits):
        out = 0
        for d in digits:
            assert 0 <= d < g
            out = out * g + d
        return out

    assert horner(words.digits_of(n, g, MSF)) == n
    assert horner(reversed(words.digits_of(n, g, LSF))) == n


@pytest.mark.parametrize("g", [2, 3, 10, 16, 300])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_word_texts_match_word_text(g, k):
    size = g**k
    if size <= 5000:
        codes = np.arange(size, dtype=np.int64)
    else:  # both ends, every leading digit, and a spread in between
        codes = np.unique(
            np.concatenate(
                [
                    np.arange(50),
                    np.arange(size - 50, size),
                    np.arange(g) * g ** (k - 1),
                    np.linspace(0, size - 1, 3000).astype(np.int64),
                ]
            )
        ).astype(np.int64)

    def decode(code):
        return [(code // g**j) % g for j in range(k - 1, -1, -1)]

    got = words.word_texts(codes, g, k)
    assert got.dtype.kind == "S"
    assert got.tolist() == [words.word_text(decode(c), g).encode("ascii") for c in codes.tolist()]
    assert words.word_texts(np.empty(0, dtype=np.int64), g, k).tolist() == []


@pytest.mark.parametrize("g", [2, 7, 10])
@pytest.mark.parametrize("k", [1, 6, 18])
def test_word_texts_match_word_text_on_long_words(g, k):
    # both ends of the code range and a seeded spread; 10^18 codes fit int64
    size = g**k
    spread = np.random.default_rng(100 * g + k).integers(0, size, 300, dtype=np.int64)
    codes = [0, size - 1, *spread.tolist()]

    def decode(code):
        word = []
        for _ in range(k):
            code, digit = divmod(code, g)
            word.append(digit)
        return word[::-1]

    got = words.word_texts(np.array(codes, dtype=np.int64), g, k)
    assert got.tolist() == [words.word_text(decode(c), g).encode("ascii") for c in codes]


def test_digits_of_rejects_zero():
    with pytest.raises(ValueError):
        words.digits_of(0)
    with pytest.raises(ValueError):
        words.digit_length(0, 2)


@pytest.mark.parametrize("g", [1, 0])
def test_digit_functions_reject_base_below_two(g):
    # base 1 never shrinks n, so these would loop forever
    for call in (
        lambda: words.digits_of(5, g),
        lambda: words.digit_length(5, g),
        lambda: words.is_eps_k_normal(5, 0.1, 1, g),
    ):
        with pytest.raises(ValueError, match="base must be >= 2"):
            call()


# ---------------------------------------------------------------------------
# normality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.3, 0.6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_is_normal_matches_definition_base2(eps, k):
    for n in range(1, 600):
        assert words.is_eps_k_normal(n, eps, k, 2) == oracle_is_normal(n, eps, k, 2)


@pytest.mark.parametrize("eps", [0.05, 0.11, 0.2])
def test_is_normal_matches_definition_base10(eps):
    for n in itertools.chain(range(1, 200), range(10**6, 10**6 + 60)):
        assert words.is_eps_k_normal(n, eps, 1, 10) == oracle_is_normal(n, eps, 1, 10)


def test_is_normal_strictness_one_digit():
    # a 1-digit number has a word count of 1, which must fall below
    # (1/10 + eps) * 1: impossible for eps <= 0.9
    assert words.is_eps_k_normal(5, 0.2, 1, 10) is False
    assert oracle_is_normal(5, 0.2, 1, 10) is False
    assert words.is_eps_k_normal(5, 0.95, 1, 10) is True


def test_is_normal_pandigital():
    # every digit occurs exactly once: counts 1 vs band (0.5, 1.5)
    assert words.is_eps_k_normal(1023456789, 0.05, 1, 10) is True


def test_is_normal_absent_word_rule():
    # digits of 5 are 101: both bigrams 10 and 01 occur once, 00 and 11
    # never; the verdict flips on whether eps clears 1/4
    assert words.is_eps_k_normal(5, 0.3, 2, 2) is True
    assert words.is_eps_k_normal(5, 0.2, 2, 2) is False
    assert oracle_is_normal(5, 0.3, 2, 2) is True
    assert oracle_is_normal(5, 0.2, 2, 2) is False


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_is_normal_order_invariant(n):
    for eps, k, g in ((0.2, 1, 10), (0.3, 2, 2)):
        assert words.is_eps_k_normal(n, eps, k, g, MSF) == words.is_eps_k_normal(
            n, eps, k, g, LSF
        )


# eps must be finite and > 0
BAD_EPS = (0.0, -0.5, -math.inf, math.inf, math.nan)


def test_is_normal_validates():
    for eps in BAD_EPS:
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            words.is_eps_k_normal(5, eps, 1, 10)
    with pytest.raises(ValueError):
        words.is_eps_k_normal(5, 0.1, 0, 10)


# eps of the form j/64 is exact in binary, so in bases 2 and 16 some word
# lengths put a bound exactly on an integer count
KERNEL_EPS = st.one_of(
    st.integers(min_value=1, max_value=96).map(lambda j: j / 64),
    st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.7]),
)


@st.composite
def kernel_cases(draw):
    """(g, k, eps, values) with values over several digit lengths, short
    lengths (below k among them) drawn as often as any."""
    g = draw(st.sampled_from([2, 3, 10, 16, 300]))
    k = draw(st.integers(min_value=1, max_value=6))
    top = words.digit_length(2**63 - 1, g)
    lengths = st.one_of(st.integers(1, k + 2), st.integers(1, top))
    values = st.lists(
        lengths.flatmap(lambda n: st.integers(g ** (n - 1), min(g**n, 2**63) - 1)),
        min_size=1,
        max_size=40,
    )
    return g, k, draw(KERNEL_EPS), draw(values)


@given(kernel_cases(), st.sampled_from([MSF, LSF]))
@settings(max_examples=400, deadline=None)
def test_eps_k_bad_mask_matches_pointwise(case, order):
    g, k, eps, values = case
    got = words.eps_k_bad_mask(np.array(values, dtype=np.int64), eps, k, g)
    assert got.dtype == bool
    assert got.tolist() == [not words.is_eps_k_normal(v, eps, k, g, order) for v in values]


def test_eps_k_bad_mask_strict_at_exact_bounds():
    # eps = 1/4, k = 1, g = 2, L = 4: the open band is (1, 3) exactly, so
    # 1000 and 1110 (counts 1 and 3) fail and 1010 passes
    assert words.normality_bounds(4, 0.25, 1, 2) == (1, 3)
    vals = np.array([0b1000, 0b1010, 0b1110, 0b1001], dtype=np.int64)
    assert words.eps_k_bad_mask(vals, 0.25, 1, 2).tolist() == [True, False, True, False]
    # eps = 1/2 puts lo at 0: both digits must occur, so 11 and 111 fail
    vals = np.array([0b11, 0b111, 0b101, 0b110], dtype=np.int64)
    assert words.eps_k_bad_mask(vals, 0.5, 1, 2).tolist() == [True, True, False, False]
    # eps = 1/4, k = 2, L = 8: the band is (0, 4), and 00 occurs 4 times
    # in 10000011 but 3 times in 10000110
    vals = np.array([0b10000011, 0b10000110], dtype=np.int64)
    assert words.eps_k_bad_mask(vals, 0.25, 2, 2).tolist() == [True, False]
    # lo = 0 again with a word absent: no windows (L = 1), or one window
    # for four words (L = 2)
    vals = np.array([1, 2, 3], dtype=np.int64)
    assert words.eps_k_bad_mask(vals, 0.25, 2, 2).tolist() == [True, True, True]
    # and with counting rows by sorted runs (g^k = 8 > 2 * 3 windows):
    # 10110 has three distinct windows, each within (0, 1.25), but five
    # words are absent
    assert words.eps_k_bad_mask(np.array([0b10110]), 0.125, 3, 2).tolist() == [True]
    # below k there are no windows: bad iff the lower bound is >= 0
    short = np.arange(1, 100, dtype=np.int64)
    assert words.eps_k_bad_mask(short, 0.0005, 3, 10).all()
    assert not words.eps_k_bad_mask(short, 0.05, 3, 10).any()
    for eps, k in ((0.25, 1), (0.5, 1), (0.25, 2), (0.125, 3)):
        for v in range(1, 300):
            want = not words.is_eps_k_normal(v, eps, k, 2)
            assert words.eps_k_bad_mask(np.array([v]), eps, k, 2)[0] == want


def test_eps_k_bad_mask_validates():
    one = np.array([5], dtype=np.int64)
    for eps in BAD_EPS:
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            words.eps_k_bad_mask(one, eps, 1, 10)
    with pytest.raises(ValueError):
        words.eps_k_bad_mask(one, 0.1, 0, 10)
    with pytest.raises(ValueError):
        words.eps_k_bad_mask(np.array([0, 5]), 0.1, 1, 10)
    with pytest.raises(ValueError):
        words.eps_k_bad_mask(one, 0.1, 1, 1)
    assert words.eps_k_bad_mask(np.empty(0, dtype=np.int64), 0.1, 1, 10).tolist() == []


def test_count_band_is_the_kernels_rule():
    # the exact ties: eps = 1/4, L = 4, base 2 leaves counts 2..2
    assert words.count_band(4, 0.25, 1, 2) == (2, 2)
    # a negative lower bound clips to 0; the top clips to the windows
    assert words.count_band(5, 0.7, 1, 2) == (0, 5)
    # lo = 0 with more words than windows: empty, so every word is bad
    assert words.count_band(2, 0.25, 2, 2) == (1, 0)
    # no windows: 0..0 below lo = 0, empty from it on
    assert words.count_band(2, 0.05, 3, 10) == (0, 0)
    assert words.count_band(2, 0.0005, 3, 10) == (1, 0)


def bad_upto(top, eps, g):
    """The cumulative count of m <= x failing the (eps, 1) test, for every
    x in 0..top, from blocked `eps_k_bad_mask` calls."""
    masks = ngrams.blocked_map(
        lambda lo, hi: words.eps_k_bad_mask(np.arange(lo + 1, hi + 1), eps, 1, g), top, 1
    )
    return np.concatenate([[0], np.cumsum(np.concatenate(list(masks)))])


# eps = 0.7 puts the lower bound below 0 in every base; 0.25 in base 2
# puts both bounds on integers at L = 4 (the ties above)
@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5, 0.7])
def test_eps_1_normal_count_matches_every_prefix(g, eps):
    bad = bad_upto(2000, eps, g)
    passing = 0
    for x in range(1, 2001):
        passing += words.is_eps_k_normal(x, eps, 1, g)
        assert words.eps_1_normal_count(x, eps, g) == x - bad[x] == passing, x


@pytest.mark.parametrize("g", [2, 3, 5, 10, 16])
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.25, 1 / 3, 0.7])
def test_eps_1_normal_count_around_powers_of_the_base(g, eps):
    top = 70_000
    bad = bad_upto(top + 1, eps, g)
    length = 1
    while g**length < top:
        for x in (g**length - 1, g**length, g**length + 1):
            assert words.eps_1_normal_count(x, eps, g) == x - bad[x], x
        length += 1
    assert words.eps_1_normal_count(top, eps, g) == top - bad[top]


@given(
    st.sampled_from([2, 3, 5, 10, 16, 300]),
    KERNEL_EPS,
    st.integers(min_value=1, max_value=20_000),
)
@settings(max_examples=60, deadline=None)
def test_eps_1_normal_count_matches_the_kernel_random(g, eps, x):
    assert words.eps_1_normal_count(x, eps, g) == x - bad_upto(x, eps, g)[x]


def test_eps_1_normal_count_pins_far_past_enumeration():
    assert 10**18 - words.eps_1_normal_count(10**18, 0.05, 2) == 415_002_687_332_098_442
    assert 10**18 - words.eps_1_normal_count(10**18, 0.05, 10) == 998_614_927_652_078_080


def test_eps_1_normal_count_validates():
    for eps in BAD_EPS:
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            words.eps_1_normal_count(10, eps, 10)
    with pytest.raises(ValueError):
        words.eps_1_normal_count(10, 0.1, 1)
    assert words.eps_1_normal_count(0, 0.1, 10) == 0


# ---------------------------------------------------------------------------
# streams and truncation
# ---------------------------------------------------------------------------


def test_natural_concatenation_prefix(engine):
    res = whole_prefix(engine, arith.CompositionSpec(), 17)
    assert "".join(map(str, res.digits)) == "12345678910111213"
    assert res.final_index == 13
    assert res.consumed_of_final == 2 and res.final_length == 2
    assert res.flush


def test_prime_concatenation_prefix(engine):
    spec = arith.CompositionSpec((), arith.PRIMES)
    res = whole_prefix(engine, spec, 20)
    assert "".join(map(str, res.digits)) == "23571113171923293137"
    assert res.final_index == 12  # twelve primes up to 37
    assert res.flush


def test_truncate_mid_word(engine):
    res = whole_prefix(engine, arith.CompositionSpec(), 16)
    assert "".join(map(str, res.digits)) == "1234567891011121"
    assert res.final_index == 13
    assert res.consumed_of_final == 1 and res.final_length == 2
    assert not res.flush


def test_truncate_minimality(engine):
    # final_index must be the least n whose word reaches N digits
    spec = arith.CompositionSpec((arith.PHI,))
    for num in (1, 7, 97, 403):
        res = whole_prefix(engine, spec, num)
        cum = 0
        n = 0
        while cum < num:
            n += 1
            cum += words.digit_length(engine.eval_composition(spec, n), 10)
        assert res.final_index == n
        assert res.consumed_of_final == num - (cum - res.final_length)


def test_truncate_matches_direct_concatenation(engine):
    spec = arith.CompositionSpec((arith.PHI,), arith.NATURALS)
    concat = []
    m = 0
    while len(concat) < 500:
        m += 1
        concat.extend(words.digits_of(engine.eval_composition(spec, m), 10))
    res = whole_prefix(engine, spec, 500)
    assert res.digits.tolist() == concat[:500]


@pytest.mark.parametrize("order", [MSF, LSF])
def test_stream_agrees_with_truncate(engine, order):
    spec = arith.CompositionSpec((arith.SIGMA,))
    _, word_list = lazy_words(engine, spec, 300, 10, order)
    res = whole_prefix(engine, spec, 300, 10, order)
    assert res.digits.tolist() == [d for w in word_list for d in w][:300]


DIFF_CHAINS = [
    (), (arith.PHI,), (arith.SIGMA,), (arith.LAMBDA,), (arith.SUM_PROPER,),
    (arith.RADICAL,), (arith.TWO_SQUARES,), (arith.gstar([2, 3]),),
    (arith.PHI, arith.SIGMA), (arith.SIGMA, arith.SIGMA),
]
DIFF_DOMAINS = [arith.NATURALS, arith.PRIMES, arith.ODD_ORDERS, arith.PRIME_ORDERS]


def lazy_words(engine, spec, count, g, order):
    """The first `count` values and their words, from the pointwise oracle."""
    values = [engine.eval_composition(spec, i) for i in range(1, count + 1)]
    return values, [words.digits_of(v, g, order) for v in values]


def lazy_truncation(values, word_list, num_digits):
    """(digits, lengths, values, final_index, consumed, final_length) by concatenation."""
    digits, lengths = [], []
    for i, w in enumerate(word_list):
        room = num_digits - len(digits)
        if len(w) >= room:
            return digits + list(w[:room]), lengths + [room], values[: i + 1], i + 1, room, len(w)
        digits.extend(w)
        lengths.append(len(w))
    raise AssertionError("oracle needs more words")


def array_truncation(res):
    return (res.digits.tolist(), res.lengths.tolist(), res.values.tolist(),
            res.final_index, res.consumed_of_final, res.final_length)


@pytest.mark.parametrize("domain", DIFF_DOMAINS, ids=lambda d: d.describe())
@pytest.mark.parametrize(
    "chain", DIFF_CHAINS, ids=lambda c: ".".join(fn.describe() for fn in c) or "id"
)
def test_truncate_matches_lazy_stream(chain, domain):
    """The array path against eval_composition + digits_of, at flush and mid-word cuts."""
    eng = arith.ArithEngine()
    spec = arith.CompositionSpec(chain, domain)
    for g in (2, 3, 10, 16, 300):
        for order in (MSF, LSF):
            values, word_list = lazy_words(eng, spec, 400, g, order)
            ends = list(itertools.accumulate(len(w) for w in word_list))
            cuts = {1, ends[0], ends[29], ends[-1]}
            # inside a word of two or more digits (s and gstar on primes have none)
            long_word = next((i for i in range(30, 400) if len(word_list[i]) > 1), None)
            if long_word is not None:
                cuts |= {ends[long_word] - 1, ends[long_word - 1] + 1}
            for num in sorted(cuts):
                res = whole_prefix(eng, spec, num, g, order)
                want = lazy_truncation(values, word_list, num)
                assert array_truncation(res) == want, (g, order, num)
                assert res.flush == (num in ends)


@given(
    st.sampled_from(DIFF_CHAINS),
    st.sampled_from(DIFF_DOMAINS),
    st.integers(min_value=2, max_value=400),
    st.sampled_from([MSF, LSF]),
    st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=60, deadline=None)
def test_truncate_matches_lazy_stream_random(chain, domain, g, order, num):
    eng = arith.ArithEngine()
    spec = arith.CompositionSpec(chain, domain)
    res = whole_prefix(eng, spec, num, g, order)
    values, word_list = lazy_words(eng, spec, res.final_index, g, order)
    assert array_truncation(res) == lazy_truncation(values, word_list, num)


def test_stream_cursor_resume(engine):
    # the cut of a shorter prefix says where the longer one goes on: the
    # rest of word `final_index`, then the words after it
    spec = arith.CompositionSpec((arith.PHI,), arith.PRIMES)
    whole = whole_prefix(engine, spec, 187)
    first = whole_prefix(engine, spec, 137)
    assert not first.flush
    n = first.final_index
    rest = list(words.digits_of(engine.eval_composition(spec, n), 10))[first.consumed_of_final :]
    while len(rest) < 50:
        n += 1
        rest.extend(words.digits_of(engine.eval_composition(spec, n), 10))
    assert first.digits.tolist() == whole.digits.tolist()[:137]
    assert rest[:50] == whole.digits.tolist()[137:187]
    assert int(whole.lengths.sum()) == 187


def test_stream_cursor_at_word_boundary(engine):
    res = whole_prefix(engine, arith.CompositionSpec(), 9)  # words 1..9 complete
    assert (res.final_index, res.consumed_of_final, int(res.lengths.sum())) == (9, 1, 9)
    assert res.flush
    assert whole_prefix(engine, arith.CompositionSpec(), 11).digits.tolist()[9:] == [1, 0]


def test_stream_base2(engine):
    res = whole_prefix(engine, arith.CompositionSpec(), 9, 2)
    # 1 10 11 100 101 ...
    assert res.digits.tolist() == [1, 1, 0, 1, 1, 1, 0, 0, 1]
    with pytest.raises(ValueError):
        whole_prefix(engine, arith.CompositionSpec(), 9, 1)
