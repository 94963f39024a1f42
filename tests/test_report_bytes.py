"""Byte pins for the canonical JSON and every CSV projection.

One report per CSV kind, plus the edge cases of the k-gram and census
writers: an empty k-gram report (N < k), a base-16 one, thin-preimage
`parts` and a block-repetition report over two primes.  Each pin is the
SHA-256 of `canonical_json` and of `to_csv` on the live report; the
payload read back from the JSON text must give the same bytes again.
"""

import hashlib
import json

import pytest

from normfreq import cli, experiments, ngrams, reports
from normfreq.arith import NATURALS, PHI, PRIMES, SIGMA, ArithEngine, CompositionSpec
from normfreq.words import LSF

CPS = experiments.default_checkpoints(3000)

REPORTS = {
    "census-divisor-phi-d3": lambda e: experiments.divisor_preimage_census(e, PHI, 3, CPS),
    "census-thin-sigma-pow2": lambda e: experiments.thin_preimage_census(
        e, SIGMA, experiments.THIN_SETS["powers-of-two"], CPS
    ),
    "kgram-primes-k3": lambda e: ngrams.count_stream(
        e, CompositionSpec((), PRIMES), 5000, k=3
    ),
    "kgram-phi-base16-lsf": lambda e: ngrams.count_stream(
        e, CompositionSpec((PHI,), NATURALS), 3000, g=16, k=2, order=LSF
    ),
    "kgram-empty": lambda e: ngrams.count_stream(e, CompositionSpec((PHI,)), 3, k=5),
    "kgram-sigma-eps": lambda e: ngrams.count_stream(
        e, CompositionSpec((SIGMA,)), 4000, g=2, k=2, eps=0.3
    ),
    "classification": lambda e: cli._classify(
        {"eps": 0.25, "k": 1, "base": 2, "limit": 3000, "order": "msf", "threads": 1}
    ),
    "growth-phi.phi": lambda e: experiments.growth_hypothesis_check(
        e, CompositionSpec((PHI, PHI)), 3000
    ),
    "block-repetition-2-3": lambda e: experiments.non_normality_demo(e, (2, 3), 3, num_digits=3000),
    "extremal": lambda e: experiments.extremal_ratio_report(e, 3000),
    "density-primes": lambda e: experiments.restricted_domain_check(
        experiments.DENSITY_SETS["primes"], "primes", 1.0, CPS
    ),
    "density-squares": lambda e: experiments.restricted_domain_check(
        experiments.DENSITY_SETS["squares"], "squares", 0.5, CPS
    ),
}

# SHA-256 of (canonical_json, to_csv)
PINS = {
    "block-repetition-2-3": (
        "623d418846dc3c989d8eea7a2445cbded89fef6dfa949b4b478bea0d1845b32f",
        "19cdbf9d9c370b2ddcaa2335c0d8eefc2ca5c661c3b450b250ef87f60ed3b29f",
    ),
    "census-divisor-phi-d3": (
        "cfb4aa546fa68cd51da3a421690a2bf3047d7795f8bdf27b30ebebe625e46307",
        "850603c12ddaa0be7bed6649a5ba4a0de41ddc134cbd8c4a0a38804ec7778be3",
    ),
    "census-thin-sigma-pow2": (
        "cd6ed1aedd8b5979ffe0174420634d6143c57589f9718d53d5bfb7ba0bc594f1",
        "cccc2a29fbbe91d785685ac67d8c424278cc1c403cf17de65b2783e5bf39b5a9",
    ),
    "classification": (
        "ac10dcdcb450343bca32a56ab45c465954086f66a5b4934b023d6977b6aa78dc",
        "31256629f82d231279d6e87c0e3beed153c59a6b09a72982d670889c997adbfb",
    ),
    "density-primes": (
        "c03e139484a43cbe2c25a518ba7005f3f070b9a0c469c22103fc546e7b459303",
        "de3faef3c90650bff48715a2696f55fc1d8492ab44c3a143cf32b8a758c2c9ce",
    ),
    "density-squares": (
        "1e7c5f74c57d9ba5d25f2db282ae57045a177552a727723bbbd1e8bc41f75273",
        "ca11c2f8d5f3590fd630d0a05f54767382dd74c0b7112dfd003d80e93409b00b",
    ),
    "extremal": (
        "6e17e796c8352950b491d901a553faaa163f299c9601427adc28011e50e9bc9a",
        "ec652043af501cfcceec3ddada7b3cb636ae13122d9eeeefe16140093bf56317",
    ),
    "growth-phi.phi": (
        "bdb6bcb5ea353f4583192d1fec55545ccbb37b8bd638813b6c58c055266ff33c",
        "81fea3a729366b34cd2f8a42f8d5818c411f171abd08525fce9a1158a628c394",
    ),
    "kgram-empty": (
        "9479a0b557e394a5686e6abefd747f66eaf2c87173c38674ba1e0a6ec0809586",
        "927679c76acb4601a73e4156017b150c38610cd127091c022fd64d101a65ad69",
    ),
    "kgram-phi-base16-lsf": (
        "4cb7af0ccea4c60ae42a3ed6854b6a0d9ee57b5c4c38111f0cb9fa3840a5c673",
        "8bb469b7ba2c10c45fe95445369a3ff4101ad0f8d2ebddf0d6bd0781a53d6e92",
    ),
    "kgram-primes-k3": (
        "6ab55d8edca8c7533ebc33b110b9307679b489da473f252d6735f9893e4dd349",
        "8fdea5cc0ae817cce2d28de4b2903af803e3f2e9bc62691eb6265babfb806714",
    ),
    "kgram-sigma-eps": (
        "97df0d492898fa0aac3afe909d103195c7de69aee5442c96b5edd93340747a67",
        "f5b6fb243498ae3d04c9a3dbf142794dde5620379e38656ef00aa459820e9ee8",
    ),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_pins_cover_every_csv_kind():
    kinds = {reports._payload(build(ArithEngine()))["kind"] for build in REPORTS.values()}
    assert kinds == set(reports.CSV_KINDS)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_are_pinned(name):
    live = REPORTS[name](ArithEngine())
    text = reports.canonical_json(live)
    csv = reports.to_csv(live)
    stored = json.loads(text)
    assert reports.canonical_json(stored) == text
    assert reports.to_csv(stored) == csv
    assert (sha(text), sha(csv)) == PINS[name]
