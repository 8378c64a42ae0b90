"""Run bundles: provenance-stamped, content-addressed run artifacts.

The observability capstone over the capture layers. One run — whatever
mix of telemetry, traces, event logs, SLO reports, profiles, timeseries
and fault ledgers it enabled — becomes one :class:`RunBundle` behind a
byte-stable ``repro-bundle/v1`` manifest with a deterministic run id,
stored content-addressed in a local :class:`RunStore` (``.repro/runs/``).
:func:`compare_runs` is the cross-run observatory: it composes the
existing diff surfaces into a single ``repro-compare/v1`` verdict.

* :mod:`repro.runs.provenance` — the :class:`ProvenanceStamp` threaded
  through every capture writer's ``meta`` block;
* :mod:`repro.runs.bundle` — manifests, artifacts, run-id derivation;
* :mod:`repro.runs.store` — the content-addressed local registry;
* :mod:`repro.runs.compare` — the cross-run regression observatory;
* :mod:`repro.runs.saver` — :class:`Capture`, the one capture session,
  and the ``--save-run`` bundler.
"""

from repro.runs.bundle import (
    ARTIFACT_KINDS,
    BUNDLE_SCHEMA,
    HOST_TIMED_KINDS,
    Artifact,
    RunBundle,
    derive_run_id,
    load_manifest,
    manifest_to_json,
    render_manifest,
    validate_manifest,
)
from repro.runs.compare import (
    COMPARE_SCHEMA,
    compare_runs,
    compare_to_json,
    has_regression,
    render_compare,
)
from repro.runs.provenance import ProvenanceStamp, hash_config
from repro.runs.saver import BUNDLE_KINDS, Capture, collect_artifacts, save_run
from repro.runs.store import DEFAULT_STORE_ROOT, RunStore

__all__ = [
    "ARTIFACT_KINDS",
    "Artifact",
    "BUNDLE_KINDS",
    "BUNDLE_SCHEMA",
    "Capture",
    "COMPARE_SCHEMA",
    "DEFAULT_STORE_ROOT",
    "HOST_TIMED_KINDS",
    "ProvenanceStamp",
    "RunBundle",
    "RunStore",
    "collect_artifacts",
    "compare_runs",
    "compare_to_json",
    "derive_run_id",
    "has_regression",
    "hash_config",
    "load_manifest",
    "manifest_to_json",
    "render_manifest",
    "save_run",
    "validate_manifest",
]
