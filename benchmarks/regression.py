#!/usr/bin/env python
"""Performance-regression harness over the experiment registry.

Runs every registered experiment (or a chosen subset) at a fixed scale and
seed, recording per-experiment wall-clock time plus the key telemetry
counters into a versioned JSON document (schema ``repro-bench/v1``,
default ``benchmarks/results/bench.json``). When a committed baseline
exists, the harness compares against it *before* overwriting and exits
non-zero if any experiment slowed down beyond the threshold::

    PYTHONPATH=src python benchmarks/regression.py                 # compare + record
    PYTHONPATH=src python benchmarks/regression.py --update-baseline
    PYTHONPATH=src python benchmarks/regression.py --experiments fig03,table2
    PYTHONPATH=src python benchmarks/regression.py --warn-only     # CI smoke mode

Wall-clock comparisons use a threshold ratio (default 1.5x) and skip
experiments whose baseline ran faster than ``MIN_COMPARABLE_WALL_S`` —
sub-50 ms timings are scheduler noise, not signal. Telemetry counters are
deterministic for a (scale, seed) pair, so a counter mismatch means the
simulation itself changed; that is reported as a drift note (and should
come with a baseline update in the same change), but only *timing*
regressions fail the run.

Each entry also records counter *rates* (counter / wall second, e.g.
planner candidates evaluated per second) — informational only, never
gated. The overhead probes in ``OVERHEAD_PROBES`` re-run ``fig12`` under
one ride-along each — a live SLO guard, the hot-path profiler, the
simulated-time sampler, the whole ``--save-run`` bundle, the run journal
— interleaved against fresh probe-off measurements and gated at 1.05x;
the profiler entry also records the per-phase wall-time breakdown under a
``profile`` key, the sampler entry the capture's series/point counts
under a ``timeseries`` key. One more probe times the whole-repo
interprocedural flow analysis (``flow-lint``) against an absolute
wall-clock budget, since that pass gates CI on every change.

``--inject-slowdown FACTOR`` multiplies the measured wall times before
comparison — a synthetic regression used by the harness's own tests and
for verifying a CI wiring end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.registry import REGISTRY, run_experiment  # noqa: E402
from repro.runs import Capture, ProvenanceStamp, RunStore, save_run  # noqa: E402

JSON_SCHEMA = "repro-bench/v1"
DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results" / "bench.json"

#: Counters whose totals are recorded per experiment. Deterministic for a
#: fixed (scale, seed), so they double as a cheap behavioral fingerprint.
TRACKED_COUNTERS = (
    "repro_faas_invocations_total",
    "repro_faas_cold_starts_total",
    "repro_scheduler_reallocations_total",
    "repro_scheduler_searches_total",
    "repro_planner_candidates_evaluated_total",
    "repro_profiler_points_evaluated_total",
)

#: Baselines faster than this are pure timer noise; their wall-clock is
#: recorded but never compared.
MIN_COMPARABLE_WALL_S = 0.05

#: The experiment every overhead probe re-runs.
GUARD_BASE_EXPERIMENT = "fig12"

#: Overhead probe entries and their bounds (all 1.05x).
GUARD_ENTRY = "fig12+slo-guard"
GUARD_OVERHEAD_RATIO = 1.05
PROFILE_ENTRY = "fig12+profiler"
PROFILE_OVERHEAD_RATIO = 1.05
TS_ENTRY = "fig12+timeseries"
TS_OVERHEAD_RATIO = 1.05
SAVE_RUN_ENTRY = "fig12+save-run"
SAVE_RUN_OVERHEAD_RATIO = 1.05
KERNEL_ENTRY = "fig12+kernel"
KERNEL_OVERHEAD_RATIO = 1.05

#: One row per overhead probe: (entry name, capture kinds or "journal",
#: minimum interleaved pairs, bound, label). A capture probe runs the
#: experiment inside a :class:`repro.runs.Capture` of those kinds and
#: saves the bundle into a throwaway store — what the matching CLI flags
#: cost under ``--save-run``: collection, one serialization, hashing and
#: store writes. "slo" guards the run with a spec no run can violate. The
#: journal probe re-trains the Fig-12 workloads with the run journal
#: recording (and fsyncing) every epoch boundary; its true cost sits well
#: inside scheduler noise, so it takes more pairs.
OVERHEAD_PROBES = (
    (GUARD_ENTRY, ("slo",), 3, GUARD_OVERHEAD_RATIO, "guard"),
    (PROFILE_ENTRY, ("profile",), 3, PROFILE_OVERHEAD_RATIO, "profiler"),
    (TS_ENTRY, ("timeseries",), 3, TS_OVERHEAD_RATIO, "sampler"),
    (SAVE_RUN_ENTRY, ("trace", "events", "timeseries"), 3,
     SAVE_RUN_OVERHEAD_RATIO, "save-run"),
    (KERNEL_ENTRY, "journal", 8, KERNEL_OVERHEAD_RATIO, "journal"),
)

#: Chaos matrix (--chaos): every Fig-12 workload must complete under the
#: default fault profile — recovering via retries, checkpoint restores and
#: Pareto replanning — with JCT inflated at most this much over fault-free.
CHAOS_INFLATION_LIMIT = 2.0
CHAOS_BUDGET_MULTIPLE = 2.5

#: Flow-analysis wall-time probe: the whole-repo interprocedural pass
#: (symbol table, call graph, and all REP009–REP013 dataflow rules over
#: ``src/repro``) must stay under this absolute budget. The pass gates CI
#: and is meant to run on every change, so it has to remain cheap as the
#: tree grows; the budget is deliberately loose against machine speed
#: (the pass takes ~1 s on a dev box) while still catching an accidental
#: fixpoint blowup or quadratic resolution step.
FLOW_ENTRY = "flow-lint"
FLOW_BUDGET_WALL_S = 10.0


def _rates(counters: dict, wall_s: float) -> dict:
    """Counter throughput per wall second (e.g. planner candidates/sec).

    Wall time is machine-dependent, so rates are informational — the
    compare step never gates on them — but they make "the planner got
    slower per candidate" visible at a glance across bench records.
    """
    if wall_s <= 0:
        return {}
    return {
        f"{name}_per_s": round(value / wall_s, 1)
        for name, value in sorted(counters.items())
    }


def measure(
    experiment: str, scale: str, seed: int, rounds: int, kinds: tuple = ()
) -> dict:
    """Best-of-``rounds`` wall time + telemetry counter totals.

    Every round runs inside a :class:`~repro.runs.Capture` of ``telemetry``
    (the counters' source) plus ``kinds``; with ``kinds`` the bundle is
    also saved into a throwaway store inside the timed region. Entries
    carry a fingerprint of what was captured: ``profile`` (per-phase
    breakdown), ``timeseries`` (series/point/marker counts), ``bundle``
    (artifact count and stored bytes).
    """
    import shutil
    import tempfile

    from repro.slo import SLOSpec

    spec = None
    if "slo" in kinds:
        spec = SLOSpec(name="overhead-probe", deadline_s=1e15, budget_usd=1e15)
    stamp = ProvenanceStamp.collect("bench", workload=experiment, seed=seed)
    walls: list[float] = []
    for _ in range(rounds):
        capture = Capture(
            stamp, dict.fromkeys(("telemetry", *kinds)), slo_spec=spec
        )
        tmp = tempfile.mkdtemp(prefix="repro-bench-runs-") if kinds else None
        try:
            start = time.perf_counter()
            with capture:
                run_experiment(experiment, scale=scale, seed=seed)
            if tmp is not None:
                bundle = save_run(RunStore(tmp), capture)
            walls.append(time.perf_counter() - start)
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
    counters = {
        snap.name: sum(s.value for s in snap.samples)
        for snap in capture.registry.snapshot()
        if snap.name in TRACKED_COUNTERS
    }
    wall = round(min(walls), 4)
    entry = {"wall_s": wall, "counters": counters, "rates": _rates(counters, wall)}
    if capture.profiler is not None:
        entry["profile"] = _phase_breakdown(capture.payload("profile"))
    if capture.sampler is not None:
        entry["timeseries"] = {
            "n_series": len(capture.sampler.series),
            "n_points": capture.sampler.n_points(),
            "n_markers": len(capture.sampler.markers),
        }
    if tmp is not None:
        entry["bundle"] = {
            "n_artifacts": len(bundle.artifacts),
            "n_bytes": sum(
                len(a.text.encode("utf-8")) for a in bundle.artifacts
            ),
        }
    return entry


def _phase_breakdown(payload: dict) -> dict:
    """Top-level profiling frames (depth <= 2) for a bench entry."""
    return {
        frame["path"]: {
            "n_calls": frame["n_calls"],
            "total_s": round(frame["total_s"], 4),
            "self_s": round(frame["self_s"], 4),
        }
        for frame in payload["frames"]
        if frame["depth"] <= 2
    }


def measure_kernel_training(
    scale: str, seed: int, journal: bool
) -> dict:
    """Wall time for the Fig-12 workload trainings, journal on or off.

    The unified event kernel has no "off" switch — every run dispatches
    through it — so the measurable ride-along is the write-ahead journal:
    one record plus an fsync per epoch boundary. Journal-on runs write
    into a throwaway directory that is removed afterwards.
    """
    import shutil
    import tempfile

    from repro.experiments.harness import get_scale
    from repro.kernel import RunJournal
    from repro.ml.models import workload
    from repro.workflow.job import training_envelope
    from repro.workflow.runner import profile_workload, run_training

    tmp = tempfile.mkdtemp(prefix="repro-bench-journal-") if journal else None
    n_records = 0
    try:
        start = time.perf_counter()
        for name in get_scale(scale).workloads:
            profile = profile_workload(name)
            budget = training_envelope(workload(name), profile).budget(
                CHAOS_BUDGET_MULTIPLE
            )
            wal = None
            if tmp is not None:
                wal = RunJournal.create(
                    Path(tmp) / f"{name}.journal",
                    run={"command": "bench", "workload": name},
                )
            try:
                run_training(
                    name, budget_usd=budget, seed=seed, profile=profile,
                    journal=wal,
                )
                if wal is not None:
                    n_records += wal.n_epochs_journaled
                    wal.commit()
            finally:
                if wal is not None:
                    wal.close()
        wall = round(time.perf_counter() - start, 4)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    entry = {"wall_s": wall, "counters": {}, "rates": {}}
    if journal:
        entry["journal"] = {"n_epoch_records": n_records}
    return entry


def measure_overhead(
    kinds, experiment: str, scale: str, seed: int, rounds: int, min_pairs: int
) -> tuple[dict, dict]:
    """(probe-off, probe-on) entries from interleaved best-of pairs.

    Machine load drifts over the minutes a bench run takes; measuring the
    two variants back to back per pair and taking each side's best keeps
    the overhead ratio about the ride-along rather than about the machine.
    """
    if kinds == "journal":
        def run(on: bool) -> dict:
            return measure_kernel_training(scale, seed, journal=on)
    else:
        def run(on: bool) -> dict:
            return measure(experiment, scale, seed, 1, kinds if on else ())
    base, probed = run(False), run(True)
    for _ in range(max(min_pairs, rounds) - 1):
        base_again, probed_again = run(False), run(True)
        if base_again["wall_s"] < base["wall_s"]:
            base = base_again
        if probed_again["wall_s"] < probed["wall_s"]:
            probed = probed_again
    return base, probed


def run_chaos_matrix(scale: str, seed: int) -> tuple[dict, list[str]]:
    """Fault-free vs default-chaos training per Fig-12 workload.

    Returns ``(entries, failures)``: one entry per workload with the clean
    and chaos JCTs (simulated seconds — deterministic, unlike wall-clock)
    and the fault/recovery counts, plus a failure line for every workload
    that crashed outright or inflated beyond ``CHAOS_INFLATION_LIMIT``.
    """
    from repro.common.errors import ReproError
    from repro.experiments.harness import get_scale
    from repro.faults import FaultPlan
    from repro.ml.models import workload
    from repro.workflow.job import training_envelope
    from repro.workflow.runner import profile_workload, run_training

    plan = FaultPlan.default_profile()
    entries: dict[str, dict] = {}
    failures: list[str] = []
    for name in get_scale(scale).workloads:
        profile = profile_workload(name)
        budget = training_envelope(workload(name), profile).budget(
            CHAOS_BUDGET_MULTIPLE
        )
        clean = run_training(
            name, budget_usd=budget, seed=seed, profile=profile
        ).result
        try:
            chaos = run_training(
                name, budget_usd=budget, seed=seed, profile=profile,
                fault_plan=plan,
            ).result
        except ReproError as exc:
            failures.append(f"{name}: chaos run failed to complete: {exc}")
            entries[name] = {"clean_jct_s": round(clean.jct_s, 4),
                             "error": str(exc)}
            continue
        inflation = chaos.jct_s / clean.jct_s if clean.jct_s > 0 else float("inf")
        summary = chaos.extra.get("faults", {})
        entries[name] = {
            "clean_jct_s": round(clean.jct_s, 4),
            "chaos_jct_s": round(chaos.jct_s, 4),
            "inflation": round(inflation, 4),
            "n_faults": summary.get("n_faults", 0),
            "n_recoveries": summary.get("n_recoveries", 0),
            "restarts": chaos.n_restarts,
        }
        print(f"  chaos:{name:20s} clean {clean.jct_s:9.2f} s -> "
              f"chaos {chaos.jct_s:9.2f} s ({inflation:.2f}x, "
              f"{summary.get('n_faults', 0)} faults)")
        if inflation > CHAOS_INFLATION_LIMIT:
            failures.append(
                f"{name}: chaos JCT inflation {inflation:.2f}x exceeds "
                f"{CHAOS_INFLATION_LIMIT:.2f}x limit"
            )
        if not summary.get("n_faults"):
            failures.append(
                f"{name}: default profile injected no faults — the chaos "
                "matrix is not exercising recovery"
            )
    return entries, failures


def run_combined_chaos_scenario(scale: str, seed: int) -> tuple[dict, list[str]]:
    """Combined scenario: invocation timeout + storage throttle + mid-run kill.

    Layers three fault axes the matrix otherwise exercises one at a time:
    an invocation timeout, a long storage throttle window, and a simulated
    SIGKILL halfway through a journaled run (the journal is truncated to
    half its epoch records plus a torn half-line, then resumed). Runs the
    first Fig-12 workload of the scale and gates on (a) the resumed run
    finishing with JCT <= ``CHAOS_INFLATION_LIMIT`` x fault-free and
    (b) the resumed journal matching the uninterrupted run's byte for byte.
    """
    import shutil
    import tempfile

    from repro.common.errors import ReproError
    from repro.experiments.harness import get_scale
    from repro.faults.plan import (
        ANY_STORAGE, FaultPlan, StorageFaultSpec, ThrottleWindow,
    )
    from repro.kernel import RunJournal
    from repro.ml.models import workload
    from repro.workflow.job import training_envelope
    from repro.workflow.runner import profile_workload, run_training

    name = get_scale(scale).workloads[0]
    plan = FaultPlan(
        name="combined-timeout-throttle-kill",
        invocation_timeout_s=30.0,
        storage={
            ANY_STORAGE: StorageFaultSpec(
                transient_prob=0.05,
                max_errors=2,
                error_timeout_s=1.0,
                throttle_windows=(
                    ThrottleWindow(start_s=10.0, duration_s=300.0,
                                   slowdown=2.0),
                ),
            )
        },
    )
    profile = profile_workload(name)
    budget = training_envelope(workload(name), profile).budget(
        CHAOS_BUDGET_MULTIPLE
    )
    clean = run_training(
        name, budget_usd=budget, seed=seed, profile=profile
    ).result

    failures: list[str] = []
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-combined-"))
    try:
        journal_path = tmp / "combined.journal"
        header = {"command": "bench-combined", "workload": name}
        try:
            with RunJournal.create(journal_path, run=header) as wal:
                run_training(
                    name, budget_usd=budget, seed=seed, profile=profile,
                    fault_plan=plan, journal=wal,
                )
                wal.commit()
        except ReproError as exc:
            return ({"error": str(exc)}, [
                f"{name}: combined scenario failed before the kill: {exc}"
            ])
        finished = journal_path.read_bytes()
        lines = finished.decode().splitlines()
        n_epochs = sum(1 for s in lines if '"kind": "epoch"' in s)

        # Simulated SIGKILL at the halfway epoch boundary: keep half the
        # fsynced records plus a torn half-written line, then resume.
        kept = lines[: 1 + n_epochs // 2]
        torn = lines[1 + n_epochs // 2][:40]
        journal_path.write_bytes(("\n".join(kept) + "\n" + torn).encode())
        try:
            with RunJournal.open_resume(journal_path) as wal:
                resumed = run_training(
                    name, budget_usd=budget, seed=seed, profile=profile,
                    fault_plan=plan, journal=wal,
                ).result
                wal.commit()
        except ReproError as exc:
            return ({"error": str(exc)}, [
                f"{name}: combined scenario failed to resume: {exc}"
            ])
        if journal_path.read_bytes() != finished:
            failures.append(
                f"{name}: resumed journal diverges from the uninterrupted "
                "run's bytes"
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    inflation = (
        resumed.jct_s / clean.jct_s if clean.jct_s > 0 else float("inf")
    )
    summary = resumed.extra.get("faults", {})
    entry = {
        "workload": name,
        "clean_jct_s": round(clean.jct_s, 4),
        "chaos_jct_s": round(resumed.jct_s, 4),
        "inflation": round(inflation, 4),
        "n_faults": summary.get("n_faults", 0),
        "n_recoveries": summary.get("n_recoveries", 0),
        "kill_epoch": n_epochs // 2,
        "n_epochs": n_epochs,
    }
    print(f"  chaos:combined({name}) clean {clean.jct_s:9.2f} s -> "
          f"resumed {resumed.jct_s:9.2f} s ({inflation:.2f}x, "
          f"killed at epoch {n_epochs // 2}/{n_epochs})")
    if inflation > CHAOS_INFLATION_LIMIT:
        failures.append(
            f"{name}: combined-scenario JCT inflation {inflation:.2f}x "
            f"exceeds {CHAOS_INFLATION_LIMIT:.2f}x limit"
        )
    if not summary.get("n_faults"):
        failures.append(
            f"{name}: combined scenario injected no faults — timeout and "
            "throttle axes are not engaging"
        )
    return entry, failures


def measure_flow_lint(rounds: int) -> dict:
    """Best-of-``rounds`` wall time for the whole-repo flow analysis.

    Runs the full interprocedural pass — project index, call graph,
    clock-taint fixpoint, RNG hygiene, shard audit, schema cross-check —
    over ``src/repro``, exactly what the ``flow-analysis`` CI step and
    ``repro lint --flow`` execute. Counters record the analyzed file and
    finding counts so a silent scope regression (the walker skipping
    half the tree, say) shows up as counter drift in the bench document.
    """
    from repro.analysis import analyze_flow

    walls: list[float] = []
    n_files = 0
    n_findings = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = analyze_flow([REPO_ROOT / "src" / "repro"])
        walls.append(time.perf_counter() - start)
        n_files = result.files_analyzed
        n_findings = len(result.findings)
    wall = round(min(walls), 4)
    counters = {
        "repro_flow_files_analyzed_total": float(n_files),
        "repro_flow_findings_total": float(n_findings),
    }
    return {"wall_s": wall, "counters": counters,
            "rates": _rates(counters, wall)}


def run_suite(
    experiments: list[str], scale: str, seed: int, rounds: int,
    slowdown: float = 1.0,
) -> dict:
    results: dict[str, dict] = {}
    for exp in experiments:
        entry = measure(exp, scale, seed, rounds)
        if slowdown != 1.0:
            entry["wall_s"] = round(entry["wall_s"] * slowdown, 4)
        results[exp] = entry
        print(f"  {exp:20s} {entry['wall_s']:9.3f} s")
    return {
        "schema": JSON_SCHEMA,
        "scale": scale,
        "seed": seed,
        "rounds": rounds,
        "experiments": results,
    }


def compare(current: dict, baseline: dict, threshold: float
            ) -> tuple[list[str], list[str]]:
    """Returns (timing regressions, informational drift notes)."""
    regressions: list[str] = []
    notes: list[str] = []
    if baseline.get("scale") != current["scale"] or baseline.get("seed") != current["seed"]:
        notes.append(
            f"baseline ran at scale={baseline.get('scale')} seed={baseline.get('seed')}; "
            f"current is scale={current['scale']} seed={current['seed']} — skipping compare"
        )
        return regressions, notes
    base_entries = baseline.get("experiments", {})
    for exp, entry in current["experiments"].items():
        base = base_entries.get(exp)
        if base is None:
            notes.append(f"{exp}: new experiment, no baseline entry")
            continue
        wall, base_wall = entry["wall_s"], base["wall_s"]
        if base_wall >= MIN_COMPARABLE_WALL_S and wall > base_wall * threshold:
            regressions.append(
                f"{exp}: {wall:.3f} s vs baseline {base_wall:.3f} s "
                f"({wall / base_wall:.2f}x > {threshold:.2f}x threshold)"
            )
        for name, value in entry["counters"].items():
            base_value = base.get("counters", {}).get(name)
            if base_value is not None and base_value != value:
                notes.append(
                    f"{exp}: counter {name} changed "
                    f"{base_value:g} -> {value:g} (behavioral drift; "
                    "update the baseline if intended)"
                )
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiments",
        help="comma-separated experiment ids (default: the full registry)",
    )
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="timing rounds per experiment (best-of)")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="fail when wall time exceeds baseline x this")
    parser.add_argument("--out", type=Path, default=DEFAULT_RESULTS,
                        help="where to write the bench document")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline to compare against (default: --out)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record without comparing")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (CI smoke mode)")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        metavar="FACTOR",
                        help="multiply measured wall times (self-test hook)")
    parser.add_argument("--chaos", action="store_true",
                        help="also run the fault-injection matrix: every "
                             "Fig-12 workload under the default chaos "
                             "profile, gated on completion and JCT "
                             f"inflation <= {CHAOS_INFLATION_LIMIT}x")
    args = parser.parse_args(argv)

    available = REGISTRY.available()
    if args.experiments:
        experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
        unknown = sorted(set(experiments) - set(available))
        if unknown:
            parser.error(f"unknown experiments: {', '.join(unknown)}")
    else:
        experiments = list(available)

    baseline_path = args.baseline if args.baseline is not None else args.out
    baseline = None
    if not args.update_baseline and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())

    print(f"benchmarking {len(experiments)} experiment(s) at scale={args.scale} "
          f"seed={args.seed} rounds={args.rounds}")
    current = run_suite(
        experiments, args.scale, args.seed, args.rounds,
        slowdown=args.inject_slowdown,
    )

    # Overhead probes: each compared within-run against freshly
    # interleaved probe-off measurements, so the check is immune both to
    # machine-to-machine speed differences and to load drift across the
    # minutes of a full suite.
    guard_regressions: list[str] = []
    if GUARD_BASE_EXPERIMENT in current["experiments"]:
        for name, kinds, min_pairs, ratio, label in OVERHEAD_PROBES:
            base, entry = measure_overhead(
                kinds, GUARD_BASE_EXPERIMENT, args.scale, args.seed,
                args.rounds, min_pairs,
            )
            if args.inject_slowdown != 1.0:
                entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
                base["wall_s"] = round(base["wall_s"] * args.inject_slowdown, 4)
            current["experiments"][name] = entry
            print(f"  {name:20s} {entry['wall_s']:9.3f} s"
                  f"  (interleaved {label}-off {base['wall_s']:.3f} s)")
            base_wall = base["wall_s"]
            if (
                base_wall >= MIN_COMPARABLE_WALL_S
                and entry["wall_s"] > base_wall * ratio
            ):
                guard_regressions.append(
                    f"{name}: {entry['wall_s']:.3f} s vs {label}-off "
                    f"{base_wall:.3f} s ({entry['wall_s'] / base_wall:.2f}x "
                    f"> {ratio:.2f}x overhead budget)"
                )

    # Flow-analysis wall-time probe: the interprocedural lint layer gates
    # CI on every change, so its own cost is a budgeted quantity. Unlike
    # the overhead probes above this is an absolute budget, not a ratio —
    # the pass has no "off" variant to interleave against.
    entry = measure_flow_lint(args.rounds)
    if args.inject_slowdown != 1.0:
        entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
    current["experiments"][FLOW_ENTRY] = entry
    print(f"  {FLOW_ENTRY:20s} {entry['wall_s']:9.3f} s"
          f"  (budget {FLOW_BUDGET_WALL_S:.1f} s)")
    # Like the baseline compare (and unlike the deterministic chaos
    # verdicts), this is a wall-clock gate: --update-baseline records
    # without judging it.
    if not args.update_baseline and entry["wall_s"] > FLOW_BUDGET_WALL_S:
        guard_regressions.append(
            f"{FLOW_ENTRY}: {entry['wall_s']:.3f} s exceeds the "
            f"{FLOW_BUDGET_WALL_S:.1f} s whole-repo flow-analysis budget"
        )

    chaos_failures: list[str] = []
    if args.chaos:
        print("chaos matrix (default fault profile)")
        chaos_entries, chaos_failures = run_chaos_matrix(args.scale, args.seed)
        combined_entry, combined_failures = run_combined_chaos_scenario(
            args.scale, args.seed
        )
        chaos_entries["combined-timeout-throttle-kill"] = combined_entry
        chaos_failures += combined_failures
        current["chaos"] = chaos_entries

    exit_code = 0
    if baseline is None:
        print("no baseline to compare against; recording only")
        regressions = []
    else:
        regressions, notes = compare(current, baseline, args.threshold)
        for note in notes:
            print(f"note: {note}")
    regressions += guard_regressions
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}")
        exit_code = 0 if args.warn_only else 1
    elif baseline is not None:
        print(f"no regressions vs {baseline_path}")
    if chaos_failures:
        # Chaos verdicts compare simulated JCTs — deterministic for a
        # (scale, seed), so they gate even under --warn-only.
        for failure in chaos_failures:
            print(f"CHAOS FAILURE: {failure}")
        exit_code = 1

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
