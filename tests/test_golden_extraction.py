"""Byte-identity goldens for whole-circuit timing and K-path extraction.

Each case pins a sha256 over the exact floats (``float.hex``) that
static timing and path extraction produce:

* ``k_critical_paths(k=4)`` on seeded c5315 and c7552 stand-ins, at the
  cell-minimum sizing and at a seeded random sizing -- every path's gate
  names, input edge, delay and bounded-path boundary (``cin_first_ff``,
  ``cterm_ff`` and each stage's ``cside_ff``);
* ``critical_path`` on the nine CORE circuits;
* the same extraction under the NLDM backend of
  ``examples/sample_nldm.lib``;
* an ``analyze()`` digest of every arrival event (time, transition,
  cause, in dict order) and every load, on the same circuits.

The hashes were computed with the per-arc scalar gate kernel that the
bound arc tables replaced, so a last-bit drift in any arc, a changed
tie-break or a reordered arrival dict fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.cells.library import default_library
from repro.iscas.generator import generate_circuit
from repro.iscas.loader import load_benchmark
from repro.iscas.profiles import PROFILES
from repro.liberty import library_from_lib
from repro.timing.critical_paths import critical_path, k_critical_paths
from repro.timing.sta import analyze

SAMPLE_LIB = os.path.join(
    os.path.dirname(__file__), "..", "examples", "sample_nldm.lib"
)

#: The paper's benchmark set (mirrors ``benchmarks/conftest.py``).
CORE_CIRCUITS = (
    "adder16",
    "c432",
    "c499",
    "c880",
    "c1355",
    "c1908",
    "c3540",
    "c5315",
    "c7552",
)

#: (profile, generator seed) of the K-path stand-ins.
STAND_INS = (("c5315", 3), ("c7552", 5))

GOLDEN = {
    "analytic": {
        "kpaths": "a33aecebffe802dc90fa48ca9b9fe7b7dfd3f04920b0e304ac1db03b83af9550",
        "critical": "d41877e6826f229435c9dd4a4ab439c0fbf507f527ebce1a6bc3b19439e4926b",
        "analyze": "e94631d694274cd90dd5d1491c33438c748d4f29cb4851690379d586601a550b",
    },
    "nldm": {
        "kpaths": "9e84b11e25552090c14b937e6c430917747bce7e877deed6b8923f5168e834fb",
        "critical": "84adc159b518de9abf4163590e85017334b3b4ed6d28e54fe80e88b4e11fb533",
        "analyze": "329d9f40073f45e71f7ff0586872cdf949de970167e4007ab6e6e2ad9eee0133",
    },
}


@pytest.fixture(scope="module", params=("analytic", "nldm"))
def backend_lib(request):
    if request.param == "analytic":
        return request.param, default_library()
    return request.param, library_from_lib(SAMPLE_LIB)


def _stand_in(name, seed, lib, sized):
    circuit = generate_circuit(dataclasses.replace(PROFILES[name], seed=seed))
    if sized:
        rng = np.random.default_rng(seed)
        for gate in circuit.gates.values():
            base = lib.cell(gate.kind).cin_min(lib.tech)
            gate.cin_ff = base * float(rng.uniform(1.0, 6.0))
    return circuit


def _hex(value):
    return float(value).hex()


def _digest_path(h, extracted):
    path = extracted.path
    h.update(repr(extracted.gate_names).encode())
    h.update(extracted.input_edge.value.encode())
    h.update(_hex(extracted.delay_ps).encode())
    h.update(_hex(path.cin_first_ff).encode())
    h.update(_hex(path.cterm_ff).encode())
    for stage in path.stages:
        h.update(_hex(stage.cside_ff).encode())


def _digest_sta(h, result):
    for net, per_net in result.arrivals.items():
        h.update(net.encode())
        for edge, event in per_net.items():
            h.update(edge.value.encode())
            h.update(_hex(event.time_ps).encode())
            h.update(_hex(event.transition_ps).encode())
            if event.cause is not None:
                h.update(event.cause[0].encode())
                h.update(event.cause[1].value.encode())
    for name, load in result.loads_ff.items():
        h.update(name.encode())
        h.update(_hex(load).encode())
    h.update(_hex(result.critical_delay_ps).encode())
    h.update(result.critical_output[0].encode())
    h.update(result.critical_output[1].value.encode())


def test_k_critical_paths_are_pinned(backend_lib):
    backend, lib = backend_lib
    h = hashlib.sha256()
    for name, seed in STAND_INS:
        for sized in (False, True):
            paths = k_critical_paths(_stand_in(name, seed, lib, sized), lib, k=4)
            assert len(paths) == 4
            for extracted in paths:
                _digest_path(h, extracted)
    assert h.hexdigest() == GOLDEN[backend]["kpaths"]


def test_critical_paths_of_core_circuits_are_pinned(backend_lib):
    backend, lib = backend_lib
    h = hashlib.sha256()
    for name in CORE_CIRCUITS:
        _digest_path(h, critical_path(load_benchmark(name), lib))
    assert h.hexdigest() == GOLDEN[backend]["critical"]


def test_analyze_arrivals_are_pinned(backend_lib):
    backend, lib = backend_lib
    h = hashlib.sha256()
    for name in CORE_CIRCUITS:
        _digest_sta(h, analyze(load_benchmark(name), lib))
    for name, seed in STAND_INS:
        _digest_sta(h, analyze(_stand_in(name, seed, lib, sized=True), lib))
    assert h.hexdigest() == GOLDEN[backend]["analyze"]
