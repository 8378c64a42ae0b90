"""Capture: one session installs, serializes once, writes and bundles."""

import json

import pytest

import repro.runs.saver
from repro.cli import main
from repro.profiling import get_profiler
from repro.runs import BUNDLE_KINDS, Capture, ProvenanceStamp, RunStore, save_run
from repro.slo import SLOSpec
from repro.slo.events import get_event_bus
from repro.telemetry import get_registry, get_tracer
from repro.timeseries import get_sampler
from repro.workflow.runner import run_training


def _collectors() -> tuple:
    return (get_registry(), get_tracer(), get_event_bus(), get_profiler(),
            get_sampler())


def _quiet_spec() -> SLOSpec:
    return SLOSpec(name="quiet", deadline_s=1e15, budget_usd=1e15)


ALL_KINDS = ("telemetry", "trace", "events", "profile", "flamegraph", "timeseries")


class TestInstall:
    def test_inert_with_no_kinds(self):
        before = _collectors()
        with Capture(None, {}) as capture:
            assert _collectors() == before
        assert capture.artifacts == {}
        assert capture.slo_report is None

    def test_installs_only_what_the_kinds_need(self):
        before = _collectors()
        with Capture(None, {"telemetry": None}) as capture:
            registry, tracer, bus, profiler, sampler = _collectors()
            assert registry is capture.registry
            assert (tracer, bus, profiler, sampler) == before[1:]
        assert set(capture.artifacts) == {"telemetry"}

    def test_spec_installs_the_guard_without_a_kind(self):
        with Capture(None, {}, slo_spec=_quiet_spec()) as capture:
            assert get_event_bus().enabled
        assert capture.guard is not None
        assert capture.slo_report is not None
        assert capture.artifacts == {}  # "slo" was not requested

    def test_nesting_restores_every_collector(self):
        before = _collectors()
        files = dict.fromkeys(ALL_KINDS)
        with Capture(None, files, slo_spec=_quiet_spec()) as outer:
            mid = _collectors()
            with Capture(None, files, slo_spec=_quiet_spec()):
                assert all(a is not b for a, b in zip(_collectors(), mid))
            assert _collectors() == mid
            assert mid[0] is outer.registry and mid[4] is outer.sampler
        assert _collectors() == before

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="nosuch"):
            Capture(None, {"nosuch": None})

    def test_payload_before_entry_raises(self):
        with pytest.raises(RuntimeError):
            Capture(None, {"profile": None}).payload("profile")


class TestExport:
    @pytest.fixture(scope="class")
    def captured(self, tmp_path_factory, lr_higgs, lr_profile):
        out = tmp_path_factory.mktemp("capture")
        files = {kind: out / kind for kind in ALL_KINDS + ("slo",)}
        stamp = ProvenanceStamp.collect("train", workload="lr-higgs")
        with Capture(stamp, files, slo_spec=_quiet_spec()) as capture:
            run = run_training(lr_higgs, budget_usd=2.0, seed=0,
                               profile=lr_profile, max_epochs=10)
            capture.run_summary = {"jct_s": run.result.jct_s}
        return capture, out

    def test_files_are_the_serialized_texts(self, captured):
        capture, out = captured
        assert set(capture.artifacts) == set(ALL_KINDS) | {"slo"}
        for kind, text in capture.artifacts.items():
            if kind != "trace":
                assert (out / kind).read_text() == text, kind

    def test_profiled_trace_file_adds_host_frames(self, captured):
        capture, out = captured
        bundled = json.loads(capture.artifacts["trace"])["traceEvents"]
        written = json.loads((out / "trace").read_text())["traceEvents"]
        assert written[: len(bundled)] == bundled
        assert len(written) > len(bundled)

    def test_peaks_join_the_run_summary(self, captured):
        capture, out = captured
        assert set(capture.run_summary) == {"jct_s", "peaks"}
        telemetry = json.loads((out / "telemetry").read_text())
        assert telemetry["run"]["peaks"] == capture.run_summary["peaks"]

    def test_save_run_bundles_the_same_texts(self, captured, tmp_path,
                                             monkeypatch):
        capture, _ = captured

        def fail(*args, **kwargs):
            raise AssertionError("save_run re-serialized the capture")

        monkeypatch.setattr(repro.runs.saver, "collect_artifacts", fail)
        store = RunStore(tmp_path / "runs")
        bundle = save_run(store, capture)
        manifest = store.load(bundle.run_id)
        for kind, text in capture.artifacts.items():
            assert store.read_artifact(manifest, kind) == text
        assert manifest["summary"] == capture.run_summary

    def test_nothing_written_over_a_crash(self, tmp_path):
        before = _collectors()
        files = {kind: tmp_path / kind for kind in ALL_KINDS}
        with pytest.raises(RuntimeError, match="boom"):
            with Capture(None, files, slo_spec=_quiet_spec()):
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []
        assert _collectors() == before


class TestCli:
    def test_save_run_serializes_each_artifact_once(self, tmp_path,
                                                    monkeypatch, capsys):
        calls = []
        original = repro.runs.saver.collect_artifacts

        def counting(capture):
            calls.append(sorted(capture.files))
            return original(capture)

        monkeypatch.setattr(repro.runs.saver, "collect_artifacts", counting)
        tel = tmp_path / "tel.json"
        assert main(
            ["train", "lr-higgs", "--telemetry", str(tel),
             "--save-run", str(tmp_path / "runs")]
        ) == 0
        capsys.readouterr()
        assert calls == [sorted(BUNDLE_KINDS)]
