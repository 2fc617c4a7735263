"""The :class:`RunRecord` envelope every Session operation returns.

A record bundles the job echo, the typed result payload and timing
metadata into one object with a lossless JSON representation.  Payload
serialization is deterministic -- two identical runs (same job, same
library) produce byte-identical ``to_dict(with_timing=False)`` output --
which is what lets the parallel batch runner hand results across process
boundaries and still match the serial path exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from sys import intern
from typing import Any, Dict, Optional

from repro.api.job import Job
from repro.api.serialization import (
    bounds_from_dict,
    bounds_to_dict,
    circuit_result_from_dict,
    circuit_result_to_dict,
    flimit_entries_from_list,
    flimit_entries_to_list,
    path_from_dict,
    path_to_dict,
    power_from_dict,
    power_to_dict,
    protocol_result_from_dict,
    protocol_result_to_dict,
)
from repro.cells.library import Library, default_library

#: Record kinds and their payload schema.
KIND_OPTIMIZE_PATH = "optimize-path"
KIND_OPTIMIZE_CIRCUIT = "optimize-circuit"
KIND_BOUNDS = "bounds"
KIND_POWER = "power"
KIND_CHARACTERIZE = "characterize"
#: Campaign summary: spec echo + per-point metrics + Pareto frontier.
#: The payload is already JSON-native (built by ``repro.explore``), so it
#: round-trips verbatim; the per-point full records live in the campaign
#: store, not in this envelope.
KIND_SWEEP = "sweep"
#: Monte-Carlo corner analysis: an ``repro.mc.McResult`` payload (delay
#: distribution, per-endpoint statistics, yield / guard bands).
KIND_MC = "mc"

KINDS = (
    KIND_OPTIMIZE_PATH,
    KIND_OPTIMIZE_CIRCUIT,
    KIND_BOUNDS,
    KIND_POWER,
    KIND_CHARACTERIZE,
    KIND_SWEEP,
    KIND_MC,
)


class RecordError(ValueError):
    """A malformed serialized run record."""


@dataclass
class RunRecord:
    """One completed Session operation.

    Attributes
    ----------
    kind:
        Payload discriminator, one of :data:`KINDS`.
    job:
        The job specification that produced this record (``None`` for
        job-less operations such as library characterisation).
    payload:
        The typed result object (``ProtocolResult``,
        ``CircuitOptimizationResult``, ``DelayBounds`` wrapper, ...).
    extra:
        Small derived scalars worth keeping next to the payload (resolved
        ``tc_ps``, extraction delay, area...), JSON-native values only.
    elapsed_s:
        Wall-clock duration of the operation.
    created_unix:
        POSIX timestamp of record creation.
    telemetry:
        Optional JSON-native per-run telemetry (the optimizer's
        pass-by-pass story, see :mod:`repro.obs.telemetry`).  Like the
        timing block it is envelope metadata, not payload: it is emitted
        only by ``to_dict(with_timing=True)``, so the byte-stable
        ``with_timing=False`` form -- the batch/serve parity contract --
        is unchanged, and old readers simply ignore the extra key.
    """

    kind: str
    job: Optional[Job]
    payload: Any
    extra: Dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0
    created_unix: float = 0.0
    telemetry: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise RecordError(f"unknown record kind {self.kind!r}")

    # -- serialization -------------------------------------------------

    def _payload_to_dict(self) -> Any:
        if self.kind == KIND_OPTIMIZE_PATH:
            return protocol_result_to_dict(self.payload)
        if self.kind == KIND_OPTIMIZE_CIRCUIT:
            return circuit_result_to_dict(self.payload)
        if self.kind == KIND_BOUNDS:
            return {
                "gate_names": list(self.payload["gate_names"]),
                "path": path_to_dict(self.payload["path"]),
                "bounds": bounds_to_dict(self.payload["bounds"]),
            }
        if self.kind == KIND_POWER:
            return power_to_dict(self.payload)
        if self.kind == KIND_SWEEP:
            return dict(self.payload)
        if self.kind == KIND_MC:
            from repro.mc.result import mc_result_to_dict

            return mc_result_to_dict(self.payload)
        return flimit_entries_to_list(self.payload)

    def to_dict(self, with_timing: bool = True) -> Dict[str, Any]:
        """JSON-compatible representation.

        ``with_timing=False`` drops the (non-deterministic) wall-clock
        metadata, leaving only content that is byte-stable across
        re-runs -- the form batch-parity checks compare.
        """
        data: Dict[str, Any] = {
            "kind": self.kind,
            "job": None if self.job is None else self.job.to_dict(),
            "payload": self._payload_to_dict(),
            "extra": dict(self.extra),
        }
        if with_timing:
            data["timing"] = {
                "elapsed_s": float(self.elapsed_s),
                "created_unix": float(self.created_unix),
            }
            if self.telemetry is not None:
                data["telemetry"] = dict(self.telemetry)
        return data

    def to_json(self, with_timing: bool = True, indent: Optional[int] = None) -> str:
        """The record as a JSON string."""
        return json.dumps(
            self.to_dict(with_timing=with_timing), indent=indent, sort_keys=True
        )

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], library: Optional[Library] = None
    ) -> "RunRecord":
        """Rebuild a record; paths/results re-bind to ``library``.

        The library must characterise the same cells the run used.  When
        omitted, the job echo's backend spec decides: an ``"nldm"`` job
        whose ``liberty`` file is still readable rebuilds the NLDM
        library from it, everything else gets the deterministic default
        analytic library.
        """
        if library is None:
            job_data = data.get("job") or {}
            liberty = job_data.get("liberty")
            if job_data.get("backend") == "nldm" and liberty is not None:
                try:
                    from repro.liberty import library_from_lib

                    library = library_from_lib(liberty)
                except (OSError, ValueError):
                    library = None  # fall through to the analytic default
        if library is None:
            library = default_library()
        kind = data.get("kind")
        if kind not in KINDS:
            raise RecordError(f"unknown record kind {kind!r}")
        raw_payload = data["payload"]
        payload: Any
        if kind == KIND_OPTIMIZE_PATH:
            payload = protocol_result_from_dict(raw_payload, library)
        elif kind == KIND_OPTIMIZE_CIRCUIT:
            payload = circuit_result_from_dict(raw_payload, library)
        elif kind == KIND_BOUNDS:
            payload = {
                "gate_names": tuple(intern(n) for n in raw_payload["gate_names"]),
                "path": path_from_dict(raw_payload["path"], library),
                "bounds": bounds_from_dict(raw_payload["bounds"]),
            }
        elif kind == KIND_POWER:
            payload = power_from_dict(raw_payload)
        elif kind == KIND_SWEEP:
            payload = dict(raw_payload)
        elif kind == KIND_MC:
            from repro.mc.result import mc_result_from_dict

            payload = mc_result_from_dict(raw_payload)
        else:
            payload = flimit_entries_from_list(raw_payload)
        timing = data.get("timing") or {}
        telemetry = data.get("telemetry")
        return cls(
            kind=kind,
            job=None if data.get("job") is None else Job.from_dict(data["job"]),
            payload=payload,
            extra=dict(data.get("extra") or {}),
            elapsed_s=timing.get("elapsed_s", 0.0),
            created_unix=timing.get("created_unix", 0.0),
            telemetry=None if telemetry is None else dict(telemetry),
        )

    @classmethod
    def from_json(
        cls, text: str, library: Optional[Library] = None
    ) -> "RunRecord":
        """Rebuild a record from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text), library=library)
