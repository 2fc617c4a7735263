"""Byte-identity goldens for the eq. 4 / eq. 6 solvers.

Each case pins the sha256 of a record's ``to_json(with_timing=False)``
(or, for the local buffering mode, which no ``Job`` reaches, of the
result's float bytes).  The hashes were computed with the element-wise
numpy kernels that the float stage-table kernels of
``repro.timing.evaluation`` replaced, so any last-bit drift in a delay,
coefficient, gradient, sweep or history total fails here.

The cases cover path scope in every constraint domain (the infeasible
band reaches both buffering and De Morgan restructuring), circuit scope,
``weight_mode="area"``, a ``bounds`` record (``history`` and
``iterations``) and the ``frozen`` stages of local buffering.  A
kernel-level golden pins the raw delay, stage delays, coefficients and
gradient on 400 random sizings, where a drift cannot hide behind the
solvers' rounding.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import Job, Session
from repro.buffering.insertion import distribute_with_buffers, min_delay_with_buffers
from repro.timing.evaluation import (
    delay_gradient,
    effective_a_coeffs,
    evaluate_path,
    path_delay_ps,
)

GOLDEN_RECORDS = [
    pytest.param(
        "optimize", dict(benchmark="fpd", tc_ratio=0.9),
        "338fae127050dadde5e8f729ae05382c99b9d8dfe7a836aa689d1702372bd74e",
        id="path-infeasible-demorgan",
    ),
    pytest.param(
        "optimize", dict(benchmark="c432", tc_ratio=0.9),
        "0ca7cff1ed35d7ccb99b20d966cb7ec0112be8b5787c7a0a2bfe8a734c5a1193",
        id="path-infeasible-buffering",
    ),
    pytest.param(
        "optimize", dict(benchmark="fpd", tc_ratio=1.1),
        "b1f4ba048b10e935630860e690ed9fab1e631952083eff45c8cff215e4786f9c",
        id="path-hard",
    ),
    pytest.param(
        "optimize", dict(benchmark="c432", tc_ratio=1.4),
        "9d77ae4e54044a95443db3432714e05d2e5c2d351176485932d44eb6e9cb2768",
        id="path-medium",
    ),
    pytest.param(
        "optimize", dict(benchmark="c880", tc_ratio=3.0),
        "85eb2db7bb6bebc07571f790e743da2335a06f0bcc21dcd4130544520c0aa07c",
        id="path-weak",
    ),
    pytest.param(
        "optimize", dict(benchmark="c432", tc_ratio=1.4, weight_mode="area"),
        "5608ec7f4f64fd0f4bb60e1b2c0ee6528370dd541ef0f62058051735e615aae9",
        id="path-medium-area",
    ),
    pytest.param(
        "optimize",
        dict(benchmark="fpd", tc_ratio=1.3, scope="circuit", k_paths=2, max_passes=2),
        "cc1b0b94b45f4fb3d1d81ce549c7a95c5c61e89a8e17b623956f93d7377d4c04",
        id="circuit",
    ),
    pytest.param(
        "bounds", dict(benchmark="c880"),
        "08a377a5f9e182632b5aa658d78e7f0b681f2d1ca51da00c06d08b06e933689f",
        id="bounds",
    ),
]

#: Local-mode buffering on the c432 critical path (frozen stages).
GOLDEN_LOCAL_BUFFERING = (
    "b8bf53602ed9af66ab128e92d9fc72f5dfc05a59aa011edb856abb485de47714"
)


#: Delay, stage delays, eq. 4 coefficients and gradient on the c432
#: critical path (29 stages) at 400 seeded random sizings.
GOLDEN_KERNELS = "6026b740eef1c9320483ec0e0a99adde20d1f2ca23c586c84b586b406cb0e197"


@pytest.fixture(scope="module")
def session():
    return Session()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind, spec, digest", GOLDEN_RECORDS)
def test_record_bytes_are_pinned(session, kind, spec, digest):
    record = getattr(session, kind)(Job(**spec))
    assert _sha256(record.to_json(with_timing=False)) == digest


def test_local_buffering_with_frozen_stages_is_pinned(session):
    path = session.critical_path(session.benchmark("c432")).path
    library = session.library
    digest = hashlib.sha256()

    buffered = min_delay_with_buffers(path, library, mode="local")
    assert buffered.inserted_at  # the frozen-original resize ran
    digest.update(np.asarray(buffered.sizes, dtype=float).tobytes())
    digest.update(repr(float(buffered.delay_ps)).encode())

    tc_ps = 1.5 * buffered.baseline_delay_ps
    result, _, inserted = distribute_with_buffers(path, library, tc_ps, mode="local")
    assert inserted  # eq. 6 ran with the inserted buffers frozen
    digest.update(np.asarray(result.sizes, dtype=float).tobytes())
    digest.update(
        repr(
            (
                float(result.achieved_delay_ps),
                float(result.area_um),
                float(result.a),
                result.solver_evaluations,
                inserted,
            )
        ).encode()
    )
    assert digest.hexdigest() == GOLDEN_LOCAL_BUFFERING


def test_kernel_bits_are_pinned(session):
    path = session.critical_path(session.benchmark("c432")).path
    library = session.library
    assert len(path) == 29
    rng = np.random.default_rng(2005)
    mins = path.min_sizes(library)
    digest = hashlib.sha256()
    for _ in range(400):
        sizes = mins * rng.uniform(1.0, 12.0, size=len(path))
        digest.update(np.float64(path_delay_ps(path, sizes, library)).tobytes())
        stage_delays = evaluate_path(path, sizes, library).stage_delays_ps
        digest.update(np.asarray(stage_delays, dtype=float).tobytes())
        digest.update(effective_a_coeffs(path, sizes, library).tobytes())
        digest.update(delay_gradient(path, sizes, library).tobytes())
    assert digest.hexdigest() == GOLDEN_KERNELS
