"""Golden capture bytes: every deterministic file the CLI writes is pinned.

``capture_golden.json`` records, for each invocation below, the sha256 of
its stdout and of every file it wrote (captures, fault report, run-store
manifest and objects), plus the run id it printed. The invocations run in
a temporary working directory with relative output names, so argv — which
capture metadata records — is the same on every machine. Host-timed
captures (``--profile``/``--flamegraph``) are never requested, and only
digests that two independent runs agree on are recorded: tuning
telemetry carries the planner's host wall-clock histogram, so the tune
and workflow telemetry, manifests and run ids are left out.

Float formatting and summation can differ across Python minor versions,
so the fixture records the version it was generated on and the test
skips on any other.

Regenerate (only when a capture change is intended, and explain it)::

    PYTHONPATH=src python tests/test_capture_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.slo import SLOSpec

FIXTURE = Path(__file__).with_name("capture_golden.json")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

# Limits no run reaches and auxiliary rules off: the guard raises nothing.
QUIET_SPEC = SLOSpec(
    name="quiet",
    deadline_s=1e15,
    budget_usd=1e15,
    predictor_drift_threshold=None,
    straggler_slowdown=None,
)


def _file_flags(tag: str) -> list[str]:
    return [
        "--telemetry", f"{tag}.telemetry.json",
        "--trace", f"{tag}.trace.json",
        "--events", f"{tag}.events.jsonl",
        "--slo", "quiet-slo.json",
        "--timeseries", f"{tag}.timeseries.json",
        "--faults", "faults.json",
        "--fault-report", f"{tag}.faults.json",
        "--save-run", "store",
    ]


INVOCATIONS: dict[str, list[str]] = {
    "train": ["train", "lr-higgs", "--budget", "2.0", "--seed", "0",
              *_file_flags("train")],
    "tune": ["tune", "lr-higgs", "--trials", "16", *_file_flags("tune")],
    "workflow": ["workflow", "lr-higgs", "--trials", "8", "--budget", "25",
                 *_file_flags("workflow")],
    "dash": ["dash", "lr-higgs", "--out", "dash.timeseries.json"],
    "slo": ["slo", "--spec", "quiet-slo.json", "lr-higgs",
            "--events", "slo.events.jsonl", "--out", "slo.report.json"],
    "diagnose": ["diagnose", "lr-higgs",
                 "--timeseries", "diagnose.timeseries.json",
                 "--out", "diagnose.json"],
}

_RUN_ID = re.compile(r"^run    : (r[0-9a-f]{12}) ", re.MULTILINE)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture_all(workdir: Path) -> dict:
    """Run every invocation in ``workdir``; digests of what each produced."""
    (workdir / "quiet-slo.json").write_text(QUIET_SPEC.to_json())
    (workdir / "faults.json").write_text(FaultPlan.default_profile().to_json())
    inputs = {"quiet-slo.json", "faults.json"}
    seen: dict[str, str] = {}
    out: dict[str, dict] = {}
    for name, argv in INVOCATIONS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(list(argv))
        files = {}
        for path in sorted(workdir.rglob("*")):
            rel = path.relative_to(workdir).as_posix()
            if not path.is_file() or rel in inputs:
                continue
            digest = _sha256(path.read_bytes())
            if seen.get(rel) != digest:
                files[rel] = digest
                seen[rel] = digest
        match = _RUN_ID.search(stdout.getvalue())
        out[name] = {
            "exit": code,
            "stdout": _sha256(stdout.getvalue().encode("utf-8")),
            "run_id": match.group(1) if match else None,
            "files": files,
        }
    return out


def _stable(first: dict, second: dict) -> dict:
    """Keep only the digests two independent runs agree on."""
    assert first.keys() == second.keys()
    out = {}
    for name, a in first.items():
        b = second[name]
        assert a["exit"] == b["exit"], name
        out[name] = {
            "exit": a["exit"],
            "run_id": a["run_id"] if a["run_id"] == b["run_id"] else None,
            "stdout": a["stdout"] if a["stdout"] == b["stdout"] else None,
            "files": {
                rel: digest
                for rel, digest in a["files"].items()
                if b["files"].get(rel) == digest
            },
        }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    payload = json.loads(FIXTURE.read_text())
    if payload["python"] != PYTHON:
        pytest.skip(
            f"capture golden generated on Python {payload['python']}; "
            f"float output on {PYTHON} may differ"
        )
    return payload["invocations"]


@pytest.fixture(scope="module")
def produced(tmp_path_factory, golden) -> dict:
    workdir = tmp_path_factory.mktemp("capture-golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        return capture_all(workdir)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_capture_bytes_match_golden(name, golden, produced):
    expected, got = golden[name], produced[name]
    assert got["exit"] == expected["exit"]
    for key in ("run_id", "stdout"):
        if expected[key] is not None:
            assert got[key] == expected[key], key
    for rel, digest in expected["files"].items():
        assert got["files"].get(rel) == digest, rel


def _write() -> None:
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                runs.append(capture_all(Path(tmp)))
            finally:
                os.chdir(cwd)
    payload = {"python": PYTHON, "invocations": _stable(*runs)}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
