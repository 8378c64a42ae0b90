"""One capture session per run: install collectors, serialize once, export.

A :class:`Capture` wraps a block of work (the CLI's ``train``/``tune``/
``workflow``/``dash``/``diagnose``/``slo`` runs, or any library caller)::

    with Capture(stamp, {"telemetry": "out.json", "trace": None}) as capture:
        run = run_training("lr-higgs", budget_usd=2.0)
        capture.run_summary = {"jct_s": run.result.jct_s, ...}
    save_run(RunStore(".repro/runs"), capture)   # optional

``files`` maps each artifact kind the run should produce to an output
path, or to ``None`` to collect it without writing a file. On entry the
capture installs exactly the collectors those kinds need; on a clean exit
it restores the previous ones (captures nest), serializes every requested
kind once in :func:`collect_artifacts`, and writes each file from those
texts. :func:`save_run` bundles the same texts, so a ``--telemetry`` file
and the bundle's ``telemetry.json`` are the same bytes. The one file that
may differ from its bundled artifact is the ``trace`` file of a profiled
run, which also carries the profiler's host-time frames. On an exception
nothing is written.

Collector imports stay local to the methods: every instrumented layer
imports the collector packages, and the CLI imports this module at start.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.common.meta import coerce_meta
from repro.runs.bundle import ARTIFACT_KINDS, RunBundle
from repro.runs.provenance import ProvenanceStamp
from repro.runs.store import RunStore

#: What ``--save-run`` bundles beyond the files a command was asked for.
#: ``slo`` and ``faults`` are collected only when the run had a guard or
#: a fault plan.
BUNDLE_KINDS = ("telemetry", "trace", "events", "slo", "timeseries", "faults")


class Capture:
    """Context manager that captures one run's artifacts.

    Args:
        stamp: the run's :class:`~repro.runs.ProvenanceStamp` (or a plain
            meta dict; :func:`save_run` needs a stamp) — every artifact's
            ``meta`` block. Artifacts carry it without argv, which names
            output paths; only the bundle manifest keeps argv, so a run's
            id does not depend on where its files went.
        files: artifact kind -> output path, or ``None`` to collect the
            kind without writing it. Kinds are those of
            :data:`~repro.runs.bundle.ARTIFACT_KINDS`.
        slo_spec: an :class:`~repro.slo.SLOSpec` or a path to one; guards
            the run and evaluates :attr:`slo_report` on exit.
        sample_memory: also sample tracemalloc peaks in the profiler.

    With no kinds and no spec the capture is inert: it installs nothing
    and the run stays byte-identical to an uncaptured one. ``slo`` and
    ``faults`` come from the run rather than a collector: ``slo`` needs
    ``slo_spec``, and ``faults`` needs :attr:`fault_ledger` set during the
    run (with :attr:`fault_plan` for the report's plan block).
    """

    def __init__(
        self,
        stamp,
        files: dict[str, str | Path | None],
        slo_spec=None,
        sample_memory: bool = False,
    ) -> None:
        unknown = sorted(set(files) - set(ARTIFACT_KINDS))
        if unknown:
            raise ValueError(f"unknown capture kind(s): {', '.join(unknown)}")
        if isinstance(slo_spec, (str, Path)):
            from repro.slo.spec import SLOSpec

            slo_spec = SLOSpec.load(slo_spec)
        self.stamp = stamp
        self.meta = coerce_meta(
            replace(stamp, argv=()) if isinstance(stamp, ProvenanceStamp) else stamp
        )
        self.files = {
            kind: Path(path) if path is not None else None
            for kind, path in files.items()
        }
        self.slo_spec = slo_spec
        self.sample_memory = sample_memory
        self.run_summary: dict = {}
        self.fault_ledger = None
        self.fault_plan = None
        self.registry = None
        self.tracer = None
        self.log = None
        self.guard = None
        self.profiler = None
        self.sampler = None
        self.slo_report = None
        self.artifacts: dict[str, str] = {}
        self._payloads: dict[str, dict] = {}
        self._restore: list = []

    def payload(self, kind: str) -> dict:
        """The ``profile`` or ``timeseries`` document, after a clean exit."""
        try:
            return self._payloads[kind]
        except KeyError:
            raise RuntimeError(f"capture holds no {kind} payload") from None

    def _install(self, get, set_, collector) -> None:
        previous = get()
        set_(collector)
        self._restore.append(lambda: set_(previous))

    def __enter__(self) -> "Capture":
        kinds = self.files.keys()
        if "telemetry" in kinds:
            from repro.telemetry import get_registry, set_registry
            from repro.telemetry.metrics import MetricsRegistry

            self.registry = MetricsRegistry()
            self._install(get_registry, set_registry, self.registry)
        if "trace" in kinds:
            from repro.telemetry import get_tracer, set_tracer
            from repro.telemetry.spans import Tracer

            self.tracer = Tracer()
            self._install(get_tracer, set_tracer, self.tracer)
        if "events" in kinds or self.slo_spec is not None:
            # After the registry and tracer: the guard mirrors alerts into
            # whichever collectors are live when it is built.
            from repro.slo.events import (
                EventBus,
                EventLog,
                get_event_bus,
                set_event_bus,
            )

            bus = EventBus()
            self.log = EventLog(meta=self.meta)
            if self.slo_spec is not None:
                from repro.slo.guard import SLOGuard

                self.guard = SLOGuard(self.slo_spec, log=self.log)
                bus.subscribe(self.guard.on_event)
            else:
                bus.subscribe(self.log.record)
            self._install(get_event_bus, set_event_bus, bus)
        if kinds & {"profile", "flamegraph"}:
            from repro.profiling import get_profiler, set_profiler
            from repro.profiling.core import Profiler

            self.profiler = Profiler(sample_memory=self.sample_memory)
            self._install(get_profiler, set_profiler, self.profiler)
        if "timeseries" in kinds:
            # After the bus: every event on a live bus also lands on the
            # sampler's timeline as a marker.
            from repro.slo.events import get_event_bus
            from repro.timeseries import get_sampler, set_sampler
            from repro.timeseries.core import TimeSeriesSampler

            self.sampler = sampler = TimeSeriesSampler()
            self._install(get_sampler, set_sampler, sampler)
            bus = get_event_bus()
            if bus.enabled:
                bus.subscribe(
                    lambda event: sampler.mark(
                        event.kind, event.t_s, label=event.scope
                    )
                )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._restore:
            self._restore.pop()()
        if self.profiler is not None:
            self.profiler.close()
        if exc_type is not None:
            return  # don't write partial captures over a crash
        if self.guard is not None:
            from repro.slo.report import evaluate_guard

            self.slo_report = evaluate_guard(self.guard, meta=self.meta)
        if self.sampler is not None:
            from repro.timeseries.capture import capture_payload
            from repro.timeseries.core import peaks_summary

            self.run_summary["peaks"] = peaks_summary(self.sampler)
            self._payloads["timeseries"] = capture_payload(
                self.sampler, meta=self.meta
            )
        if self.profiler is not None:
            from repro.profiling.capture import capture_payload

            self._payloads["profile"] = capture_payload(
                self.profiler, meta=self.meta
            )
        self.artifacts = collect_artifacts(self)
        for kind, path in self.files.items():
            if path is None or kind not in self.artifacts:
                continue
            text = self.artifacts[kind]
            if kind == "trace" and self.profiler is not None:
                from repro.profiling import augment_chrome_trace

                text = augment_chrome_trace(text, self.profiler)
            path.write_text(text)


def collect_artifacts(capture: Capture) -> dict[str, str]:
    """Serialize each requested kind the run produced: the only serializer.

    Runs once, at a capture's clean exit; the files and the bundle both
    take their bytes from the returned texts.
    """
    kinds = capture.files.keys()
    texts: dict[str, str] = {}
    if "telemetry" in kinds:
        from repro.telemetry.exporters import to_json

        texts["telemetry"] = to_json(
            capture.registry.snapshot(),
            run=capture.run_summary,
            meta=capture.meta,
        )
    if "trace" in kinds:
        texts["trace"] = capture.tracer.to_chrome_trace()
    if "events" in kinds:
        texts["events"] = capture.log.to_jsonl()
    if "slo" in kinds and capture.slo_report is not None:
        texts["slo"] = capture.slo_report.to_json()
    if "profile" in kinds:
        from repro.profiling.capture import to_json

        texts["profile"] = to_json(capture.payload("profile"))
    if "flamegraph" in kinds:
        from repro.profiling.flamegraph import to_collapsed

        texts["flamegraph"] = to_collapsed(capture.payload("profile"))
    if "timeseries" in kinds:
        from repro.timeseries.capture import to_json

        texts["timeseries"] = to_json(capture.payload("timeseries"))
    if "faults" in kinds and capture.fault_ledger is not None:
        plan = capture.fault_plan
        texts["faults"] = capture.fault_ledger.to_json(
            plan.to_payload() if plan is not None else None, meta=capture.meta
        )
    return texts


def save_run(store: RunStore, capture: Capture) -> RunBundle:
    """Bundle a finished capture's texts and persist them; returns the bundle.

    Nothing is serialized again: the bundle holds the same texts the
    capture wrote to its files.
    """
    bundle = RunBundle(capture.stamp, capture.artifacts, summary=capture.run_summary)
    store.save(bundle)
    return bundle
