"""The benchmark workloads' ``--no-meta`` output digests, pinned.

Each workload of ``bench/workloads.py`` is set up at seed 0 and run once over
all of its inputs (``min_iterations``: every ``planted_tasks`` corpus), in
process, and the digest over its outputs must equal the one recorded here.
A change that moves an output byte fails this test; such a change records
the new digest here and lists the move in CHANGES.md.

``grad-check --no-meta`` is pinned the same way, by the digest of its
output file at two seeds: it is the direct guard on the gradient bits.

The digests were taken with numpy 2.4.6 on scipy-openblas 0.3.31, a
DYNAMIC_ARCH build that picked its SkylakeX kernels on an AVX-512 x86-64
host. A BLAS kernel that rounds differently can move them; the CI log
prints ``numpy.show_config()`` and ``numpy.show_runtime()`` to tell such a
host apart.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from videothreads import cli  # noqa: E402
from workloads import WORKLOADS, Session  # noqa: E402

SEED_ZERO_DIGESTS = {
    "long_video": "3138833b23dfcbe68186ba45c677ba0ed0ab4cae5929912903b1914d7d2f761e",
    "planted_tasks": "f56f81210c1d428adb7afc6e39d72cf09f3c542cdef00cbffaf8d98d3688a3e7",
    "toy_training": "07f4a3403c3016a324e8fb4f6e03cbdabbd483618c9def9346eb12480ef4e12f",
}


@pytest.mark.parametrize("name", sorted(SEED_ZERO_DIGESTS))
def test_seed_zero_digest(name, tmp_path):
    workload = WORKLOADS[name]()
    session = Session(cli)
    workload.setup(session, tmp_path, 0)
    for index in range(workload.min_iterations):
        workload.iterate(session, index)
    assert session.problems == []
    assert session.digest() == SEED_ZERO_DIGESTS[name]


GRAD_CHECK_DIGESTS = {
    0: "b00a05f9731420c8abb174a019aaacfc356cde874f109da4a2a7e1a353c914dd",
    1: "e96569663cf9daf95a659ae403eda14dec6d3b64a481f51f2f52901b099473ee",
}


@pytest.mark.parametrize("seed", sorted(GRAD_CHECK_DIGESTS))
def test_grad_check_digest(seed, tmp_path):
    out = tmp_path / "grad_check.json"
    assert cli.main(["grad-check", "--seed", str(seed), "--out", str(out), "--no-meta"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRAD_CHECK_DIGESTS[seed]


SYNTH_DIGESTS = {
    "7x16": {
        "annotations.json": "ddcb332325daadf1b51742682dd43883d17aca0adc25cb1c0df9c82756b976b6",
        "features.hft": "c0222484578b2b16c1ae269334050c82094ba48366c3aba59450e16b3e45e466",
        "narrations.json": "92dc4c6741de6acbd16862bbf6b1ab7d2a7c7145d1415a228a2d9d72060625f3",
        "planted.json": "bc25fce661b57faf4337a3e08c978ca235480180d198fb84329073327fb9704d",
        "summary.json": "204252ec6fe7e9fe0d79de16e3f516d426d02bf255c1c5b2c43b50e254b57de6",
        "taxonomy.json": "ad76050c58c5274cdeacf7cf06e958c6050d0cc0391bcbb2dfd3bff2bf8ea708",
    },
    # the long_video corpus: its 3584 narration rows of 64 floats span 28
    # _floatrepr chunks, where the 7x16 corpus fits in one
    "7x512": {
        "annotations.json": "dc51edcc517a93b926ad650ba0b58c45e3f03706b5c821d2e1536d1cfc619647",
        "features.hft": "4b85567b977b92212d411a08738c1966353f7032c790b59518388ec6606bb9ff",
        "narrations.json": "7164d012528c3bdef851521ba07a5e7fd22ed1d5ce2632aaa164b380859dc643",
        "planted.json": "6eb917c4319a3cb58c712bbd499c86e2c1d34920af93c87648cc110dabd0770f",
        "summary.json": "fb5a076830cff715b56e2020151f845c865befad3deffdad2d8f73491902cd0e",
        "taxonomy.json": "ad76050c58c5274cdeacf7cf06e958c6050d0cc0391bcbb2dfd3bff2bf8ea708",
    },
}


@pytest.mark.parametrize("corpus", sorted(SYNTH_DIGESTS))
def test_synth_digests(corpus, tmp_path):
    # every file synth writes, narrations.json included: no workload digest
    # covers its bytes, training sees them only through the loss
    threads, segments_per_step = corpus.split("x")
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(out), "--seed", "0", "--threads", threads,
                     "--segments-per-step", segments_per_step, "--dim", "64",
                     "--separation", "10", "--no-meta"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SYNTH_DIGESTS[corpus]
