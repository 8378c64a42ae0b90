"""Sampling under a Capture: scoped install/restore, capture export, peaks."""

import pytest

from repro.runs import Capture
from repro.slo.events import EventBus, get_event_bus, set_event_bus
from repro.timeseries import (
    NullSampler,
    TimeSeriesSampler,
    get_sampler,
    load_capture,
    peaks_summary,
    set_sampler,
)


def _sampling(path=None, meta=None) -> Capture:
    return Capture(meta, {"timeseries": path})


class TestLifecycle:
    def test_inert_without_flags(self):
        capture = Capture(None, {})
        with capture:
            assert isinstance(get_sampler(), NullSampler)
        assert capture.sampler is None
        assert capture.artifacts == {}

    def test_collect_only_installs_and_restores(self):
        with _sampling() as capture:
            assert get_sampler() is capture.sampler
        assert isinstance(get_sampler(), NullSampler)

    def test_sessions_nest(self):
        with _sampling() as outer:
            with _sampling() as inner:
                assert get_sampler() is inner.sampler
            assert get_sampler() is outer.sampler
        assert isinstance(get_sampler(), NullSampler)

    def test_restores_preexisting_sampler(self):
        mine = TimeSeriesSampler()
        set_sampler(mine)
        try:
            with _sampling():
                assert get_sampler() is not mine
            assert get_sampler() is mine
        finally:
            set_sampler(None)

    def test_payload_requires_entry(self):
        with pytest.raises(RuntimeError):
            _sampling().payload("timeseries")


class TestExport:
    def test_writes_capture_on_clean_exit(self, tmp_path):
        path = tmp_path / "ts.json"
        with _sampling(path, meta={"seed": 1}) as capture:
            get_sampler().sample("a", 0.0, 1.0)
        payload = load_capture(path.read_text())
        assert payload["meta"] == {"seed": 1}
        assert payload["totals"]["n_series"] == 1
        assert path.read_text() == capture.artifacts["timeseries"]

    def test_no_capture_over_a_crash(self, tmp_path):
        path = tmp_path / "ts.json"
        with pytest.raises(RuntimeError):
            with _sampling(path):
                raise RuntimeError("boom")
        assert not path.exists()
        # The previous (null) sampler is still restored.
        assert isinstance(get_sampler(), NullSampler)


class TestBusMarkers:
    def test_live_bus_events_become_markers(self):
        bus = EventBus()
        prev = get_event_bus()
        set_event_bus(bus)
        try:
            with _sampling() as capture:
                bus.emit("epoch_done", 2.5, scope="train")
            marks = [(m.kind, m.t_s, m.label) for m in capture.sampler.markers]
        finally:
            set_event_bus(prev)
        assert marks == [("epoch_done", 2.5, "train")]

    def test_null_bus_is_ignored(self):
        with _sampling() as capture:
            pass
        assert capture.sampler.markers == []


class TestPeaksSummary:
    def test_high_water_marks(self):
        s = TimeSeriesSampler()
        s.sample("platform.inflight", 0.0, 10.0)
        s.sample("platform.inflight", 1.0, 300.0)
        s.sample("platform.warm_pool", 1.0, 42.0)
        s.sample("storage.s3.bandwidth_mb_s", 0.5, 120.0)
        s.sample("storage.vmps.bandwidth_mb_s", 0.5, 340.0)
        assert peaks_summary(s) == {
            "concurrency": 300.0,
            "warm_pool": 42.0,
            "storage_bandwidth_mb_s": 340.0,
        }

    def test_empty_sampler_yields_zeros(self):
        assert peaks_summary(TimeSeriesSampler()) == {
            "concurrency": 0.0,
            "warm_pool": 0.0,
            "storage_bandwidth_mb_s": 0.0,
        }
