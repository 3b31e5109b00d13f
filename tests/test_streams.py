"""The seeded-stream contract: fixed-seed outputs against recorded digests.

Each case hashes the bytes of a seeded output with SHA-256 and compares the
hex digest with the one recorded for the running ``__version__``.  A change
that alters which random numbers are drawn, or the bits of any statistic they
are added to, fails here until it bumps ``__version__`` and records the new
digests under it.  The 0.3.0 to 0.8.0 digests were recorded with numpy
2.4.6.  0.4.0 changed only ``audit_elap_mechanism``, whose report now
states the closed-form maximum with one witness instead of scoring random
probes.  0.5.0 changed only ``audit_elap_mechanism`` again: its reports lost
the ``advisory`` key and are otherwise the 0.4.0 bytes.  ``audit_rr_subrr``
pins the deterministic RR and subsampled-RR audit reports; it draws nothing,
so its digest guards the reports' bytes, recorded before the subsampled audit
skipped the outcomes a replacement does not move.  ``kary-reports`` pins the
k-ary CLI RunReports (every ``sample-kary`` mode, the kary ``complexity`` tasks
and ``sweep``, and the subrr and shurr audits), recorded before their
calibration moved into ``kary.KARY_CALIBRATIONS``.  ``gaussian-reports`` pins
the Gaussian CLI RunReports (every ``sample-gaussian`` variant and mode, the
gaussian ``complexity`` tasks and ``sweep``, and both zCDP audits), recorded
before the samplers' specs and the CLI read B and sigma2 only from
``gaussian.GAUSSIAN_CALIBRATIONS``.

0.6.0 moves no sampler stream.  Its RR and subsampled-RR audit reports read
one worst-case neighbouring pair instead of enumerating count vectors, so
their witnesses and probe counts change: ``audit_rr_subrr`` moves, and so does
``kary-reports`` through its two subrr audit reports.  From 0.6.0 the two
RunReport digests drop each report's ``version`` as they drop its wall clock,
so a version bump moves only the digests whose content moved; the 0.5.0
values of those two were recorded with the version in, and the masked
``gaussian-reports`` bytes are the same at 0.5.0 and 0.6.0.

0.7.0 moves no sampler stream either.  The pure sampler's clip constant ``c``
is now the literal 2 of its clip radius and its complexity factor ``C`` (1) is
gone, so ``--c`` and ``--C`` are gone too: the ``sample-gaussian`` and ``complexity`` RunReports no
longer echo them, and the pure complexity report's ``inputs`` no longer list
them.  ``kary-reports`` moves through its kary ``complexity`` echoes and
``gaussian-reports`` through both, less the two ``--c`` runs it no longer
makes.  Both equal the 0.6.0 bytes with those keys and runs masked out; every
other 0.7.0 digest is its 0.6.0 value.

0.8.0 moves no sampler stream either.  Each CLI task now refuses a flag that
its (task, selector) row does not read, so ``kary-reports`` no longer passes
``--delta`` and ``--m`` to the ``single`` complexity task, whose RunReport
now echoes them as null.  The 0.7.0 code gives the 0.8.0 ``kary-reports``
digest on the same runs; every other 0.8.0 digest is its 0.7.0 value.

0.9.0 moves no sampler stream either.  An audit report states its binding
figure once, as ``measured`` against ``bound`` at top level: the 0.8.0
``measured_max_log_ratio`` becomes ``measured``, ``details.bound`` becomes
``bound``, and ``measured_delta``, ``details.measured``, ``details.bound``
and the ELap witness's ``argmax_point`` (a copy of ``sum_a``) are gone.  So
``audit_elap_mechanism`` and ``audit_rr_subrr`` move, and ``kary-reports``
and ``gaussian-reports`` move through their audit reports; the audit
RunReports' ``derived`` blocks keep their 0.8.0 bytes.  Every other 0.9.0
digest is its 0.8.0 value.

0.10.0 moves no stream.  It breaks the API: both zCDP samplers take
``(data, *, R, alpha, eps, rng)``, the bounded one refuses fewer rows than its
calibration takes, and its raw mechanism is the private
``_bounded_cov_mechanism``, which the ``zcdp_bounded_cov_sample`` case now
calls at its 0.9.0 B and sigma2.  Every 0.10.0 digest is its 0.9.0 value.

0.11.0 moves no stream.  It changes the API: ``KaryDataset.values`` is stored
in the narrowest signed integer type that holds k (int8 up to k = 127), and
``subset`` returns a read-only view of its dataset's private copy instead of a
validated copy.  The repetition combinators reuse those views across calls, so
a block's clipped statistic is computed once; the draws and the statistics
they are added to keep their bits.  Every 0.11.0 digest is its 0.10.0 value.
"""

import hashlib
import json

import numpy as np
import pytest

from dpsampler import __version__
from dpsampler.audit import (
    audit_elap_mechanism,
    audit_rr_local,
    audit_subrr_pure,
    report_to_json,
)
from dpsampler.cli import main
from dpsampler.core import (
    KaryDataset,
    RandomSource,
    VectorDataset,
    write_kary_csv,
    write_vector_csv,
)
from dpsampler.divergences import tv_estimate_binned
from dpsampler.elap import ELapParams, elap_sample
from dpsampler.gaussian import (
    GAUSSIAN_CALIBRATIONS,
    PureGaussianSamplerParams,
    _bounded_cov_mechanism,
    bounded_cov_clip_bound,
    pure_gaussian_sample,
    zcdp_known_cov_sample,
)
from dpsampler.kary import shurr_run, subrr_sample

DIGESTS = {
    "0.3.0": {
        "elap_sample": "5cebb21aca15adf6fe9d653ce7855f1d72023281beaf6e05bab6260b6bd2e62a",
        "pure_gaussian_sample": {
            "first": "e549b6d0729a0ce96f273d6d0105f9c849b542d5175c30427ad2d1c4b5cdd8e5",
            "repeated": "940c51a06f9975352674778bf94cf24f5fe7193fad9dae0d68a45f38d7bb83fd"
        },
        "sample-gaussian": {
            "pure/both-m3": "ddf7f6f34b88b20f065851a90ca766462df921471967ebb359722ee53594e344",
            "pure/once": "602fbbe53e5b8259d633a98444f81f07e597ea8d172ea9ba5767d7377f8621c9",
            "pure/once-count10": "6f04897729c44784357d02987611709fb33fa4ca84e8e92095c1f5efb43b2e57",
            "pure/repeat-m3": "712cf6317034a5d57a1b2d248befd0e91e03dc68304faa6fa09d6a9bd3ea34a7",
            "zcdp-bounded/both-m3": "7271d82c1f88535b472b4f543d9ff277bd19c8b422a052006938541212093416",
            "zcdp-bounded/once": "46ef9221b2afc8308f71888b58a0aafd6297f037ab30a179b67c72b72c5aa970",
            "zcdp-bounded/once-count10": "cee83a9e85b559190ab2870ff3a0b9875a04869380c387a6647c6c72f4fffe6e",
            "zcdp-bounded/repeat-m3": "93770f7c5590d33e7f706acc614454d64f4e5967444af03b56e84ef9642e03c3",
            "zcdp-known/both-m3": "8fe75b5993efc96968b5b4249819e3b80d7a5e9b46407b81931622348b53e3b5",
            "zcdp-known/once": "779f6a09929a6b558af9289fd89da71553d4d75add5006b63b70a56eac891b81",
            "zcdp-known/once-count10": "3a2e7fbd06a05114f7536e91d1efdcb7c3ae1570cb24d730c2051c640af26a38",
            "zcdp-known/repeat-m3": "3e013060c83ae6068416c39d5811112737412da54eb1c56118c576325fd4a901"
        },
        "audit_elap_mechanism": "a67e06fadfb642e1a0287fdacf60a18d8c7b1d8bd27b4250edf5f1d025641fd2",
        "shurr_run": "4ac2ebee059bdd8be220b1742bc9a184a832922b52809ed4a2872c0d40a9ebc0",
        "subrr_sample": "fd617ae45c38f9505a71c0ec057cf9849e5d0104bca92c9a4cd4fe46402f7cee",
        "tv_estimate_binned": {
            "d1": "51e7134f5ef9068fe81b04c8e10b84c44f2cfe61f694de163005d3e52c968d2c",
            "d2": "855f6f4d43000b1fba036b333e96ee180387256d3cadaf33b1c30f42dbe5a538"
        },
        "zcdp_bounded_cov_sample": {
            "first": "38799ed29b12b1897731237190aa6512c3ae6628ed261f7e7838a3c170c1e3a1",
            "repeated": "9ed6c7d7b3ff438742fc6bca4c130c264a71d89fd30f102c444af23ef891a6ff"
        },
        "zcdp_known_cov_sample": {
            "first": "76778f6eaff817107bd57136e6d230d94f2ad6e4bffab2c7d6e933deb0fb4dd7",
            "repeated": "f763a21d1f87f7c07b60db6b27d66f1071de009d2b7dd206fb8e8f306f512aa2"
        }
    },
    "0.4.0": {
        "elap_sample": "5cebb21aca15adf6fe9d653ce7855f1d72023281beaf6e05bab6260b6bd2e62a",
        "pure_gaussian_sample": {
            "first": "e549b6d0729a0ce96f273d6d0105f9c849b542d5175c30427ad2d1c4b5cdd8e5",
            "repeated": "940c51a06f9975352674778bf94cf24f5fe7193fad9dae0d68a45f38d7bb83fd"
        },
        "sample-gaussian": {
            "pure/both-m3": "ddf7f6f34b88b20f065851a90ca766462df921471967ebb359722ee53594e344",
            "pure/once": "602fbbe53e5b8259d633a98444f81f07e597ea8d172ea9ba5767d7377f8621c9",
            "pure/once-count10": "6f04897729c44784357d02987611709fb33fa4ca84e8e92095c1f5efb43b2e57",
            "pure/repeat-m3": "712cf6317034a5d57a1b2d248befd0e91e03dc68304faa6fa09d6a9bd3ea34a7",
            "zcdp-bounded/both-m3": "7271d82c1f88535b472b4f543d9ff277bd19c8b422a052006938541212093416",
            "zcdp-bounded/once": "46ef9221b2afc8308f71888b58a0aafd6297f037ab30a179b67c72b72c5aa970",
            "zcdp-bounded/once-count10": "cee83a9e85b559190ab2870ff3a0b9875a04869380c387a6647c6c72f4fffe6e",
            "zcdp-bounded/repeat-m3": "93770f7c5590d33e7f706acc614454d64f4e5967444af03b56e84ef9642e03c3",
            "zcdp-known/both-m3": "8fe75b5993efc96968b5b4249819e3b80d7a5e9b46407b81931622348b53e3b5",
            "zcdp-known/once": "779f6a09929a6b558af9289fd89da71553d4d75add5006b63b70a56eac891b81",
            "zcdp-known/once-count10": "3a2e7fbd06a05114f7536e91d1efdcb7c3ae1570cb24d730c2051c640af26a38",
            "zcdp-known/repeat-m3": "3e013060c83ae6068416c39d5811112737412da54eb1c56118c576325fd4a901"
        },
        "audit_elap_mechanism": "4fa016bb7c2f315481f8195c8fda91f9faf1c84e383808b03b7904d044f3a8fb",
        "shurr_run": "4ac2ebee059bdd8be220b1742bc9a184a832922b52809ed4a2872c0d40a9ebc0",
        "subrr_sample": "fd617ae45c38f9505a71c0ec057cf9849e5d0104bca92c9a4cd4fe46402f7cee",
        "tv_estimate_binned": {
            "d1": "51e7134f5ef9068fe81b04c8e10b84c44f2cfe61f694de163005d3e52c968d2c",
            "d2": "855f6f4d43000b1fba036b333e96ee180387256d3cadaf33b1c30f42dbe5a538"
        },
        "zcdp_bounded_cov_sample": {
            "first": "38799ed29b12b1897731237190aa6512c3ae6628ed261f7e7838a3c170c1e3a1",
            "repeated": "9ed6c7d7b3ff438742fc6bca4c130c264a71d89fd30f102c444af23ef891a6ff"
        },
        "zcdp_known_cov_sample": {
            "first": "76778f6eaff817107bd57136e6d230d94f2ad6e4bffab2c7d6e933deb0fb4dd7",
            "repeated": "f763a21d1f87f7c07b60db6b27d66f1071de009d2b7dd206fb8e8f306f512aa2"
        }
    },
    "0.5.0": {
        "elap_sample": "5cebb21aca15adf6fe9d653ce7855f1d72023281beaf6e05bab6260b6bd2e62a",
        "pure_gaussian_sample": {
            "first": "e549b6d0729a0ce96f273d6d0105f9c849b542d5175c30427ad2d1c4b5cdd8e5",
            "repeated": "940c51a06f9975352674778bf94cf24f5fe7193fad9dae0d68a45f38d7bb83fd"
        },
        "sample-gaussian": {
            "pure/both-m3": "ddf7f6f34b88b20f065851a90ca766462df921471967ebb359722ee53594e344",
            "pure/once": "602fbbe53e5b8259d633a98444f81f07e597ea8d172ea9ba5767d7377f8621c9",
            "pure/once-count10": "6f04897729c44784357d02987611709fb33fa4ca84e8e92095c1f5efb43b2e57",
            "pure/repeat-m3": "712cf6317034a5d57a1b2d248befd0e91e03dc68304faa6fa09d6a9bd3ea34a7",
            "zcdp-bounded/both-m3": "7271d82c1f88535b472b4f543d9ff277bd19c8b422a052006938541212093416",
            "zcdp-bounded/once": "46ef9221b2afc8308f71888b58a0aafd6297f037ab30a179b67c72b72c5aa970",
            "zcdp-bounded/once-count10": "cee83a9e85b559190ab2870ff3a0b9875a04869380c387a6647c6c72f4fffe6e",
            "zcdp-bounded/repeat-m3": "93770f7c5590d33e7f706acc614454d64f4e5967444af03b56e84ef9642e03c3",
            "zcdp-known/both-m3": "8fe75b5993efc96968b5b4249819e3b80d7a5e9b46407b81931622348b53e3b5",
            "zcdp-known/once": "779f6a09929a6b558af9289fd89da71553d4d75add5006b63b70a56eac891b81",
            "zcdp-known/once-count10": "3a2e7fbd06a05114f7536e91d1efdcb7c3ae1570cb24d730c2051c640af26a38",
            "zcdp-known/repeat-m3": "3e013060c83ae6068416c39d5811112737412da54eb1c56118c576325fd4a901"
        },
        "audit_elap_mechanism": "8931440311eacd6a16846d1e02426c4e060d8d3366ec00211268107436fd582f",
        "audit_rr_subrr": "e735f73ffd0ca61bc99fa6b1cf164e8653921058f9b1ee6bc3344475e80d891d",
        "gaussian-reports": "90fc54b0c70cf0b4176e1097debd895a87303563dc3f8a4893720564dda37688",
        "kary-reports": "e531aa9ca9361fe4aeb6acbfe9d858d872803368d588355beff36801b5452e82",
        "shurr_run": "4ac2ebee059bdd8be220b1742bc9a184a832922b52809ed4a2872c0d40a9ebc0",
        "subrr_sample": "fd617ae45c38f9505a71c0ec057cf9849e5d0104bca92c9a4cd4fe46402f7cee",
        "tv_estimate_binned": {
            "d1": "51e7134f5ef9068fe81b04c8e10b84c44f2cfe61f694de163005d3e52c968d2c",
            "d2": "855f6f4d43000b1fba036b333e96ee180387256d3cadaf33b1c30f42dbe5a538"
        },
        "zcdp_bounded_cov_sample": {
            "first": "38799ed29b12b1897731237190aa6512c3ae6628ed261f7e7838a3c170c1e3a1",
            "repeated": "9ed6c7d7b3ff438742fc6bca4c130c264a71d89fd30f102c444af23ef891a6ff"
        },
        "zcdp_known_cov_sample": {
            "first": "76778f6eaff817107bd57136e6d230d94f2ad6e4bffab2c7d6e933deb0fb4dd7",
            "repeated": "f763a21d1f87f7c07b60db6b27d66f1071de009d2b7dd206fb8e8f306f512aa2"
        }
    },
    "0.6.0": {
        "elap_sample": "5cebb21aca15adf6fe9d653ce7855f1d72023281beaf6e05bab6260b6bd2e62a",
        "pure_gaussian_sample": {
            "first": "e549b6d0729a0ce96f273d6d0105f9c849b542d5175c30427ad2d1c4b5cdd8e5",
            "repeated": "940c51a06f9975352674778bf94cf24f5fe7193fad9dae0d68a45f38d7bb83fd"
        },
        "sample-gaussian": {
            "pure/both-m3": "ddf7f6f34b88b20f065851a90ca766462df921471967ebb359722ee53594e344",
            "pure/once": "602fbbe53e5b8259d633a98444f81f07e597ea8d172ea9ba5767d7377f8621c9",
            "pure/once-count10": "6f04897729c44784357d02987611709fb33fa4ca84e8e92095c1f5efb43b2e57",
            "pure/repeat-m3": "712cf6317034a5d57a1b2d248befd0e91e03dc68304faa6fa09d6a9bd3ea34a7",
            "zcdp-bounded/both-m3": "7271d82c1f88535b472b4f543d9ff277bd19c8b422a052006938541212093416",
            "zcdp-bounded/once": "46ef9221b2afc8308f71888b58a0aafd6297f037ab30a179b67c72b72c5aa970",
            "zcdp-bounded/once-count10": "cee83a9e85b559190ab2870ff3a0b9875a04869380c387a6647c6c72f4fffe6e",
            "zcdp-bounded/repeat-m3": "93770f7c5590d33e7f706acc614454d64f4e5967444af03b56e84ef9642e03c3",
            "zcdp-known/both-m3": "8fe75b5993efc96968b5b4249819e3b80d7a5e9b46407b81931622348b53e3b5",
            "zcdp-known/once": "779f6a09929a6b558af9289fd89da71553d4d75add5006b63b70a56eac891b81",
            "zcdp-known/once-count10": "3a2e7fbd06a05114f7536e91d1efdcb7c3ae1570cb24d730c2051c640af26a38",
            "zcdp-known/repeat-m3": "3e013060c83ae6068416c39d5811112737412da54eb1c56118c576325fd4a901"
        },
        "audit_elap_mechanism": "8931440311eacd6a16846d1e02426c4e060d8d3366ec00211268107436fd582f",
        "audit_rr_subrr": "b13bc31968ad858d1d93c721cc4222951a869eaaad2983b36f0ffef2143d4171",
        "gaussian-reports": "209dfc5ab1b054a891aaab5a84f69b8623b3fb5922cd3382e4d55aa69f8dd06c",
        "kary-reports": "73162e66407283f25dfeadbe95a83d323ad0830e368151ac7a4e34c484628ec5",
        "shurr_run": "4ac2ebee059bdd8be220b1742bc9a184a832922b52809ed4a2872c0d40a9ebc0",
        "subrr_sample": "fd617ae45c38f9505a71c0ec057cf9849e5d0104bca92c9a4cd4fe46402f7cee",
        "tv_estimate_binned": {
            "d1": "51e7134f5ef9068fe81b04c8e10b84c44f2cfe61f694de163005d3e52c968d2c",
            "d2": "855f6f4d43000b1fba036b333e96ee180387256d3cadaf33b1c30f42dbe5a538"
        },
        "zcdp_bounded_cov_sample": {
            "first": "38799ed29b12b1897731237190aa6512c3ae6628ed261f7e7838a3c170c1e3a1",
            "repeated": "9ed6c7d7b3ff438742fc6bca4c130c264a71d89fd30f102c444af23ef891a6ff"
        },
        "zcdp_known_cov_sample": {
            "first": "76778f6eaff817107bd57136e6d230d94f2ad6e4bffab2c7d6e933deb0fb4dd7",
            "repeated": "f763a21d1f87f7c07b60db6b27d66f1071de009d2b7dd206fb8e8f306f512aa2"
        }
    },
    "0.7.0": {
        "elap_sample": "5cebb21aca15adf6fe9d653ce7855f1d72023281beaf6e05bab6260b6bd2e62a",
        "pure_gaussian_sample": {
            "first": "e549b6d0729a0ce96f273d6d0105f9c849b542d5175c30427ad2d1c4b5cdd8e5",
            "repeated": "940c51a06f9975352674778bf94cf24f5fe7193fad9dae0d68a45f38d7bb83fd"
        },
        "sample-gaussian": {
            "pure/both-m3": "ddf7f6f34b88b20f065851a90ca766462df921471967ebb359722ee53594e344",
            "pure/once": "602fbbe53e5b8259d633a98444f81f07e597ea8d172ea9ba5767d7377f8621c9",
            "pure/once-count10": "6f04897729c44784357d02987611709fb33fa4ca84e8e92095c1f5efb43b2e57",
            "pure/repeat-m3": "712cf6317034a5d57a1b2d248befd0e91e03dc68304faa6fa09d6a9bd3ea34a7",
            "zcdp-bounded/both-m3": "7271d82c1f88535b472b4f543d9ff277bd19c8b422a052006938541212093416",
            "zcdp-bounded/once": "46ef9221b2afc8308f71888b58a0aafd6297f037ab30a179b67c72b72c5aa970",
            "zcdp-bounded/once-count10": "cee83a9e85b559190ab2870ff3a0b9875a04869380c387a6647c6c72f4fffe6e",
            "zcdp-bounded/repeat-m3": "93770f7c5590d33e7f706acc614454d64f4e5967444af03b56e84ef9642e03c3",
            "zcdp-known/both-m3": "8fe75b5993efc96968b5b4249819e3b80d7a5e9b46407b81931622348b53e3b5",
            "zcdp-known/once": "779f6a09929a6b558af9289fd89da71553d4d75add5006b63b70a56eac891b81",
            "zcdp-known/once-count10": "3a2e7fbd06a05114f7536e91d1efdcb7c3ae1570cb24d730c2051c640af26a38",
            "zcdp-known/repeat-m3": "3e013060c83ae6068416c39d5811112737412da54eb1c56118c576325fd4a901"
        },
        "audit_elap_mechanism": "8931440311eacd6a16846d1e02426c4e060d8d3366ec00211268107436fd582f",
        "audit_rr_subrr": "b13bc31968ad858d1d93c721cc4222951a869eaaad2983b36f0ffef2143d4171",
        "gaussian-reports": "457074bda91d4b6d351cc6a7e6dbe0f7f6ca8f5289649155537ce5b4814638a5",
        "kary-reports": "5ae99f6290b60251a1685addb6041ae1e2382cb93068c61e999aa1a70ccb0c58",
        "shurr_run": "4ac2ebee059bdd8be220b1742bc9a184a832922b52809ed4a2872c0d40a9ebc0",
        "subrr_sample": "fd617ae45c38f9505a71c0ec057cf9849e5d0104bca92c9a4cd4fe46402f7cee",
        "tv_estimate_binned": {
            "d1": "51e7134f5ef9068fe81b04c8e10b84c44f2cfe61f694de163005d3e52c968d2c",
            "d2": "855f6f4d43000b1fba036b333e96ee180387256d3cadaf33b1c30f42dbe5a538"
        },
        "zcdp_bounded_cov_sample": {
            "first": "38799ed29b12b1897731237190aa6512c3ae6628ed261f7e7838a3c170c1e3a1",
            "repeated": "9ed6c7d7b3ff438742fc6bca4c130c264a71d89fd30f102c444af23ef891a6ff"
        },
        "zcdp_known_cov_sample": {
            "first": "76778f6eaff817107bd57136e6d230d94f2ad6e4bffab2c7d6e933deb0fb4dd7",
            "repeated": "f763a21d1f87f7c07b60db6b27d66f1071de009d2b7dd206fb8e8f306f512aa2"
        }
    },
    "0.8.0": {
        "elap_sample": "5cebb21aca15adf6fe9d653ce7855f1d72023281beaf6e05bab6260b6bd2e62a",
        "pure_gaussian_sample": {
            "first": "e549b6d0729a0ce96f273d6d0105f9c849b542d5175c30427ad2d1c4b5cdd8e5",
            "repeated": "940c51a06f9975352674778bf94cf24f5fe7193fad9dae0d68a45f38d7bb83fd"
        },
        "sample-gaussian": {
            "pure/both-m3": "ddf7f6f34b88b20f065851a90ca766462df921471967ebb359722ee53594e344",
            "pure/once": "602fbbe53e5b8259d633a98444f81f07e597ea8d172ea9ba5767d7377f8621c9",
            "pure/once-count10": "6f04897729c44784357d02987611709fb33fa4ca84e8e92095c1f5efb43b2e57",
            "pure/repeat-m3": "712cf6317034a5d57a1b2d248befd0e91e03dc68304faa6fa09d6a9bd3ea34a7",
            "zcdp-bounded/both-m3": "7271d82c1f88535b472b4f543d9ff277bd19c8b422a052006938541212093416",
            "zcdp-bounded/once": "46ef9221b2afc8308f71888b58a0aafd6297f037ab30a179b67c72b72c5aa970",
            "zcdp-bounded/once-count10": "cee83a9e85b559190ab2870ff3a0b9875a04869380c387a6647c6c72f4fffe6e",
            "zcdp-bounded/repeat-m3": "93770f7c5590d33e7f706acc614454d64f4e5967444af03b56e84ef9642e03c3",
            "zcdp-known/both-m3": "8fe75b5993efc96968b5b4249819e3b80d7a5e9b46407b81931622348b53e3b5",
            "zcdp-known/once": "779f6a09929a6b558af9289fd89da71553d4d75add5006b63b70a56eac891b81",
            "zcdp-known/once-count10": "3a2e7fbd06a05114f7536e91d1efdcb7c3ae1570cb24d730c2051c640af26a38",
            "zcdp-known/repeat-m3": "3e013060c83ae6068416c39d5811112737412da54eb1c56118c576325fd4a901"
        },
        "audit_elap_mechanism": "8931440311eacd6a16846d1e02426c4e060d8d3366ec00211268107436fd582f",
        "audit_rr_subrr": "b13bc31968ad858d1d93c721cc4222951a869eaaad2983b36f0ffef2143d4171",
        "gaussian-reports": "457074bda91d4b6d351cc6a7e6dbe0f7f6ca8f5289649155537ce5b4814638a5",
        "kary-reports": "e8fb39a22b708dc7b9e430702f94ec69467c47411bc7ef98c6f1da1344197ccd",
        "shurr_run": "4ac2ebee059bdd8be220b1742bc9a184a832922b52809ed4a2872c0d40a9ebc0",
        "subrr_sample": "fd617ae45c38f9505a71c0ec057cf9849e5d0104bca92c9a4cd4fe46402f7cee",
        "tv_estimate_binned": {
            "d1": "51e7134f5ef9068fe81b04c8e10b84c44f2cfe61f694de163005d3e52c968d2c",
            "d2": "855f6f4d43000b1fba036b333e96ee180387256d3cadaf33b1c30f42dbe5a538"
        },
        "zcdp_bounded_cov_sample": {
            "first": "38799ed29b12b1897731237190aa6512c3ae6628ed261f7e7838a3c170c1e3a1",
            "repeated": "9ed6c7d7b3ff438742fc6bca4c130c264a71d89fd30f102c444af23ef891a6ff"
        },
        "zcdp_known_cov_sample": {
            "first": "76778f6eaff817107bd57136e6d230d94f2ad6e4bffab2c7d6e933deb0fb4dd7",
            "repeated": "f763a21d1f87f7c07b60db6b27d66f1071de009d2b7dd206fb8e8f306f512aa2"
        }
    },
    "0.9.0": {
        "elap_sample": "5cebb21aca15adf6fe9d653ce7855f1d72023281beaf6e05bab6260b6bd2e62a",
        "pure_gaussian_sample": {
            "first": "e549b6d0729a0ce96f273d6d0105f9c849b542d5175c30427ad2d1c4b5cdd8e5",
            "repeated": "940c51a06f9975352674778bf94cf24f5fe7193fad9dae0d68a45f38d7bb83fd"
        },
        "sample-gaussian": {
            "pure/both-m3": "ddf7f6f34b88b20f065851a90ca766462df921471967ebb359722ee53594e344",
            "pure/once": "602fbbe53e5b8259d633a98444f81f07e597ea8d172ea9ba5767d7377f8621c9",
            "pure/once-count10": "6f04897729c44784357d02987611709fb33fa4ca84e8e92095c1f5efb43b2e57",
            "pure/repeat-m3": "712cf6317034a5d57a1b2d248befd0e91e03dc68304faa6fa09d6a9bd3ea34a7",
            "zcdp-bounded/both-m3": "7271d82c1f88535b472b4f543d9ff277bd19c8b422a052006938541212093416",
            "zcdp-bounded/once": "46ef9221b2afc8308f71888b58a0aafd6297f037ab30a179b67c72b72c5aa970",
            "zcdp-bounded/once-count10": "cee83a9e85b559190ab2870ff3a0b9875a04869380c387a6647c6c72f4fffe6e",
            "zcdp-bounded/repeat-m3": "93770f7c5590d33e7f706acc614454d64f4e5967444af03b56e84ef9642e03c3",
            "zcdp-known/both-m3": "8fe75b5993efc96968b5b4249819e3b80d7a5e9b46407b81931622348b53e3b5",
            "zcdp-known/once": "779f6a09929a6b558af9289fd89da71553d4d75add5006b63b70a56eac891b81",
            "zcdp-known/once-count10": "3a2e7fbd06a05114f7536e91d1efdcb7c3ae1570cb24d730c2051c640af26a38",
            "zcdp-known/repeat-m3": "3e013060c83ae6068416c39d5811112737412da54eb1c56118c576325fd4a901"
        },
        "audit_elap_mechanism": "eba6973f7585d20e423eb7181ff6c4683f7a95b690fb4793ccb47a40c4866087",
        "audit_rr_subrr": "de522d0e53eb20ff5a80b0a9d0fb0c5cce409424a038b168a270760bffbe7e75",
        "gaussian-reports": "a3a9bb9bb21f7ecf2dd731cbcfefb0c95a10518abd17d021a7a02d8fd787c052",
        "kary-reports": "50bd4abb1ecc2f76462da281948a18b2b6c453d64dd64bf213a85c4dfe57168e",
        "shurr_run": "4ac2ebee059bdd8be220b1742bc9a184a832922b52809ed4a2872c0d40a9ebc0",
        "subrr_sample": "fd617ae45c38f9505a71c0ec057cf9849e5d0104bca92c9a4cd4fe46402f7cee",
        "tv_estimate_binned": {
            "d1": "51e7134f5ef9068fe81b04c8e10b84c44f2cfe61f694de163005d3e52c968d2c",
            "d2": "855f6f4d43000b1fba036b333e96ee180387256d3cadaf33b1c30f42dbe5a538"
        },
        "zcdp_bounded_cov_sample": {
            "first": "38799ed29b12b1897731237190aa6512c3ae6628ed261f7e7838a3c170c1e3a1",
            "repeated": "9ed6c7d7b3ff438742fc6bca4c130c264a71d89fd30f102c444af23ef891a6ff"
        },
        "zcdp_known_cov_sample": {
            "first": "76778f6eaff817107bd57136e6d230d94f2ad6e4bffab2c7d6e933deb0fb4dd7",
            "repeated": "f763a21d1f87f7c07b60db6b27d66f1071de009d2b7dd206fb8e8f306f512aa2"
        }
    },
}
DIGESTS["0.10.0"] = DIGESTS["0.9.0"]  # 0.10.0 moves no stream
DIGESTS["0.11.0"] = DIGESTS["0.10.0"]  # 0.11.0 moves no stream


def _sha(values, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def _kary(seed: int, k: int, n: int) -> KaryDataset:
    return KaryDataset(values=np.random.default_rng(seed).integers(1, k + 1, size=n), k=k)


def _vectors(seed: int, n: int, d: int) -> VectorDataset:
    gen = np.random.default_rng(seed)
    return VectorDataset(rows=gen.uniform(-1, 1, d) + 1.5 * gen.standard_normal((n, d)))


def _subrr(tmp_path):
    data = _kary(1, 5, 200)
    return _sha([subrr_sample(data, 1.0, RandomSource(11).child(i)) for i in range(50)], "<i8")


def _shurr(tmp_path):
    return _sha(shurr_run(_kary(2, 5, 20_000), 1.0, 1e-6, 100, RandomSource(12)), "<i8")


def _elap(tmp_path):
    return _sha(elap_sample(ELapParams(d=3, b=0.7), RandomSource(13), size=100), "<f8")


def _gaussian_calls(sample, seed: int, n: int):
    """First call on a fresh dataset, then four repeated calls on the same one."""
    data = _vectors(seed, n, 2)
    root = RandomSource(seed)
    first = sample(data, root.child(0))
    repeated = [sample(data, root.child(i)) for i in range(1, 5)]
    return {"first": _sha(first, "<f8"), "repeated": _sha(repeated, "<f8")}


def _pure(tmp_path):
    params = PureGaussianSamplerParams(R=1.0, d=2, alpha=0.1, eps=1.0)
    return _gaussian_calls(lambda data, rng: pure_gaussian_sample(data, params, rng), 21, 300)


def _known(tmp_path):
    return _gaussian_calls(
        lambda data, rng: zcdp_known_cov_sample(data, R=1.0, alpha=0.1, eps=1.0, rng=rng), 22, 300
    )


def _bounded(tmp_path):
    # the raw mechanism: the public sampler refuses these 300 rows, fewer than
    # the 1,128 its calibration takes at eps = 1, and the digest predates that
    sigma2 = GAUSSIAN_CALIBRATIONS["zcdp-bounded"].sigma2(2, 0.1, 300)
    B = bounded_cov_clip_bound(2, 1.0, 0.1)
    return _gaussian_calls(
        lambda data, rng: _bounded_cov_mechanism(data, B, sigma2, rng), 23, 300
    )


def _tv(tmp_path):
    # d = 1 at 20 bins takes the multinomial count path, d = 2 at 30 bins the row path
    digests = {}
    for d, bins in ((1, 20), (2, 30)):
        p, q = _vectors(30 + d, 2_000, d), _vectors(40 + d, 2_000, d)
        est = tv_estimate_binned(p, q, bins, RandomSource(31))
        digests[f"d{d}"] = _sha([est.estimate, est.halfwidth], "<f8")
    return digests


def _audit_elap(tmp_path):
    # d 1-4 with random, antipodal and equal differing rows; the probe counts
    # are the ones 0.3.0 scored and are ignored since 0.4.0
    reports = []
    for d in range(1, 5):
        e1 = np.eye(d)[0]
        for probes, rows in ((1_000, None), (1_001, None), (2_000, (e1, -e1)),
                             (1_001, (0.5 * e1, 0.5 * e1))):
            report = audit_elap_mechanism(d, 1.0, 1.0, probes, RandomSource(4 * d),
                                          differing_rows=rows)
            reports.append(report_to_json(report))
    reports.append(report_to_json(audit_elap_mechanism(3, 1.0, 1.0, 100_000, RandomSource(5))))
    return hashlib.sha256("\n".join(reports).encode()).hexdigest()


def _audit_rr_subrr(tmp_path):
    reports = [
        audit_subrr_pure(6, 7, 1.0),
        audit_subrr_pure(6, 7, 1.0, claimed_eps=0.1),
        audit_subrr_pure(4, 6, 2.0),
        audit_subrr_pure(5, 10, 2.0),
        audit_rr_local(3, 1.0),
    ]
    return hashlib.sha256("\n".join(map(report_to_json, reports)).encode()).hexdigest()


CLI_MODES = {
    "once": ["--mode", "once"],
    "once-count10": ["--mode", "once", "--count", "10"],
    "repeat-m3": ["--mode", "repeat", "--m", "3"],
    "both-m3": ["--mode", "both", "--m", "3"],
}


def _sample_gaussian(tmp_path):
    source = tmp_path / "vectors.csv"
    write_vector_csv(source, _vectors(50, 900, 2).rows)
    digests = {}
    for variant in ("pure", "zcdp-known", "zcdp-bounded"):
        for mode, argv in CLI_MODES.items():
            out = tmp_path / f"{variant}-{mode}.csv"
            code = main(["sample-gaussian", "--variant", variant, *argv, "--in", str(source),
                         "--R", "1", "--alpha", "0.4", "--eps", "5", "--seed", "51",
                         "--out", str(out)])
            assert code == 0, (variant, mode)
            digests[f"{variant}/{mode}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


KARY_MODES = {
    "sub": ["--eps", "1"],
    "shuffle": ["--eps", "4", "--delta", "0.3", "--m", "20"],
    "repeat": ["--eps", "1", "--alpha", "0.4", "--m", "5"],
    "precision": ["--eps", "4", "--delta", "0.3", "--alpha", "0.8", "--m", "2"],
    "both": ["--eps", "1", "--alpha", "0.4", "--m", "3"],
}


def _kary_reports(tmp_path):
    # every k-ary RunReport, less its wall clock and version and with the
    # scratch folder masked, plus the sweep's CSV: the reports read each
    # mechanism's calibration, so this pins their derived figures as well as
    # the draws
    source = tmp_path / "kary.csv"
    write_kary_csv(source, _kary(60, 3, 3_000).values)
    kary_in = ["--in", str(source)]
    complexity = ["complexity", "--family", "kary", "--k", "4", "--alpha", "0.1", "--eps", "2"]
    shuffled = ["--delta", "1e-6", "--m", "8"]
    runs = [
        ["sample-kary", "--mode", mode, *kary_in, *argv, "--seed", str(seed)]
        for mode, argv in KARY_MODES.items() for seed in (61, 62)
    ] + [[*complexity, "--task", "single"]] + [
        [*complexity, *shuffled, "--task", task] for task in ("weak", "strong")
    ] + [
        ["sweep", "--family", "kary", "--k", "2,5", "--alpha", "0.05,0.3", "--eps", "0.5,4",
         "--delta", "1e-6,0.2", "--m", "1,10", "--out", str(tmp_path / "sweep.csv")],
        ["audit", "--mechanism", "subrr", "--k", "3", "--n", "6", "--eps", "1"],
        ["audit", "--mechanism", "subrr", "--k", "2", "--n", "9", "--eps", "0.5",
         "--claimed-eps", "0.1"],
        ["audit", "--mechanism", "shurr", "--k", "2", "--n", "2301", "--eps", "4",
         "--delta", "0.01"],
        ["audit", "--mechanism", "shurr", "--k", "3", "--n", "500", "--eps", "4",
         "--delta", "0.3", "--eps0", "6"],
    ]
    reports = []
    for argv in runs:
        path = tmp_path / "report.json"
        assert main([*argv, "--json", str(path)]) in (0, 2), argv
        report = json.loads(path.read_text())
        del report["wall_clock_seconds"], report["version"]
        reports.append(json.dumps(report, sort_keys=True).replace(str(tmp_path), "TMP"))
    reports.append((tmp_path / "sweep.csv").read_text())
    return hashlib.sha256("\n".join(reports).encode()).hexdigest()


GAUSSIAN_VARIANTS = ("pure", "zcdp-known", "zcdp-bounded")


def _gaussian_reports(tmp_path):
    # every Gaussian RunReport, less its wall clock and version and with the
    # scratch folder masked, plus the sweep's CSV: the reports read each
    # variant's calibration entry, so this pins B, sigma2 and the rows per call
    # besides the draws
    source = tmp_path / "vectors.csv"
    write_vector_csv(source, _vectors(70, 900, 2).rows)
    sample = ["sample-gaussian", "--in", str(source), "--R", "1", "--alpha", "0.4", "--eps", "5",
              "--seed", "71"]
    complexity = ["complexity", "--family", "gaussian", "--dim", "3", "--R", "1", "--alpha",
                  "0.1", "--eps", "1"]
    runs = [
        [*sample, "--variant", variant, *argv]
        for variant in GAUSSIAN_VARIANTS for argv in CLI_MODES.values()
    ] + [[*complexity, "--task", task] for task in GAUSSIAN_VARIANTS] + [
        ["sweep", "--family", "gaussian", "--dim", "1,3", "--R", "1,2", "--alpha", "0.05,0.3",
         "--eps", "0.5,4", "--out", str(tmp_path / "sweep.csv")],
    ] + [
        ["audit", "--mechanism", "zcdp", "--variant", variant, "--dim", "3", "--R", "1",
         "--alpha", "0.1", "--eps", "1"]
        for variant in GAUSSIAN_VARIANTS[1:]
    ]
    reports = []
    for argv in runs:
        path = tmp_path / "report.json"
        assert main([*argv, "--json", str(path)]) in (0, 2), argv
        report = json.loads(path.read_text())
        del report["wall_clock_seconds"], report["version"]
        reports.append(json.dumps(report, sort_keys=True).replace(str(tmp_path), "TMP"))
    reports.append((tmp_path / "sweep.csv").read_text())
    return hashlib.sha256("\n".join(reports).encode()).hexdigest()


CASES = {
    "subrr_sample": _subrr,
    "shurr_run": _shurr,
    "elap_sample": _elap,
    "pure_gaussian_sample": _pure,
    "zcdp_known_cov_sample": _known,
    "zcdp_bounded_cov_sample": _bounded,
    "tv_estimate_binned": _tv,
    "audit_elap_mechanism": _audit_elap,
    "audit_rr_subrr": _audit_rr_subrr,
    "sample-gaussian": _sample_gaussian,
    "kary-reports": _kary_reports,
    "gaussian-reports": _gaussian_reports,
}


def test_digests_are_recorded_for_this_version():
    assert __version__ in DIGESTS, f"record the stream digests for version {__version__}"
    assert set(DIGESTS[__version__]) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_recorded_digest(tmp_path, capsys, name):
    recorded = DIGESTS.get(__version__, {}).get(name)
    assert CASES[name](tmp_path) == recorded
