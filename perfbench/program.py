"""The benchmark's side of the program: set-up, one job per call, probes.

Jobs enter the program only through its public entry points:
``profile_workload``, ``run_training``, ``run_tuning`` and, for recorded
jobs, ``repro.cli.main`` in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import repro.cli
import repro.runs
import repro.runs.saver
from repro.analytical.profiler import ParetoProfiler
from repro.baselines.cirrus import CirrusScheduler
from repro.baselines.lambdaml import LambdaMLScheduler
from repro.baselines.siren import SirenScheduler
from repro.faas.platform import FaaSPlatform
from repro.kernel import EventKernel, RunJournal
from repro.ml.models import workload as lookup_workload
from repro.runs import RunStore
from repro.training.adaptive_scheduler import AdaptiveScheduler
from repro.training.executor import TrainingExecutor
from repro.training.online_predictor import OnlinePredictor
from repro.tuning.executor import TuningExecutor
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.plan import Objective
from repro.tuning.sha import SHASpec
from repro.workflow.job import training_envelope, tuning_envelope
from repro.workflow.runner import profile_workload, run_training, run_tuning

from checks import check_recorded, check_training, check_tuning, constraint_met
from jobs import Job
from spans import Probe

OBJECTIVE_OF = {
    "jct": Objective.MIN_JCT_GIVEN_BUDGET,
    "cost": Objective.MIN_COST_GIVEN_QOS,
}
SCHEDULERS = (AdaptiveScheduler, CirrusScheduler, LambdaMLScheduler, SirenScheduler)

# A guard that never trips: the recorded path pays for burn-rate
# accounting and alerting without turning a slow job into an exit code.
SLO_SPEC = {
    "schema": "repro-slo/v1",
    "name": "perfbench",
    "budget_usd": 1e6,
    "deadline_s": 1e9,
    "predictor_drift_threshold": 0.25,
    "straggler_slowdown": 3.0,
    "warn_ratio": 0.85,
    "stage_budgets_usd": {},
}


def sha_spec(job: Job) -> SHASpec:
    return SHASpec(n_trials=job.sha_trials, reduction_factor=2, epochs_per_stage=2)


def profile_models(jobs: list[Job]) -> dict:
    """One Pareto profile per model, shared by all of that model's jobs."""
    return {m: profile_workload(m) for m in dict.fromkeys(j.model for j in jobs)}


def constraint(job: Job, profiles: dict) -> tuple:
    """The job's (budget_usd, None) or (None, qos_s) from its model's envelope."""
    profile = profiles[job.model]
    if job.sha_trials:
        env = tuning_envelope(profile, sha_spec(job))
    else:
        env = training_envelope(lookup_workload(job.model), profile)
    if job.objective == "jct":
        return env.budget(job.multiple), None
    return None, env.qos(job.multiple)


@dataclass
class Outcome:
    """What one job cost the host, what it simulated, and what was wrong."""

    job: Job
    host_s: float
    problems: list[str]
    jct_s: float = 0.0
    cost_usd: float = 0.0
    epochs: int = 0
    restarts: int = 0
    met: bool = False
    searches: int = 0
    obs: dict = field(default_factory=dict)
    spans: tuple = (0, 0)  # the job's [lo, hi) in the run's tracer, set by run.py

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_job(workload: str, job: Job, profiles: dict, scratch: Path) -> Outcome:
    """Run one job; any exception is the job's failure, not the run's."""
    start = time.perf_counter()
    try:
        limits = constraint(job, profiles)
        if workload == "tune-plan":
            return _tuning(job, profiles, limits)
        if workload == "train-recorded":
            out = Path(tempfile.mkdtemp(dir=scratch))
            try:
                return _recorded(job, limits, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return _training(job, profiles, limits)
    except Exception as exc:  # noqa: BLE001 - every raise is a failed job
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Outcome(job, time.perf_counter() - start, [
            f"raised {type(exc).__name__}: {exc} "
            f"({Path(where.filename).name}:{where.lineno})"
        ])


def _finish(job, limits, host_s, result, problems, epochs, restarts, searches,
            obs=None) -> Outcome:
    budget, qos = limits
    return Outcome(
        job, host_s, problems, jct_s=result.jct_s, cost_usd=result.cost_usd,
        epochs=epochs, restarts=restarts,
        met=constraint_met(job, result.jct_s, result.cost_usd, budget, qos),
        searches=searches, obs=obs or {},
    )


def _training(job: Job, profiles: dict, limits: tuple) -> Outcome:
    budget, qos = limits
    start = time.perf_counter()
    run = run_training(
        job.model, method=job.method, objective=OBJECTIVE_OF[job.objective],
        budget_usd=budget, qos_s=qos, seed=job.seed,
        profile=profiles[job.model],
    )
    host_s = time.perf_counter() - start
    r = run.result
    return _finish(job, limits, host_s, r, check_training(r), len(r.epochs),
                   r.n_restarts, getattr(run.scheduler, "n_searches", 0))


def _tuning(job: Job, profiles: dict, limits: tuple) -> Outcome:
    budget, qos = limits
    start = time.perf_counter()
    run = run_tuning(
        job.model, sha_spec(job), method=job.method,
        objective=OBJECTIVE_OF[job.objective], budget_usd=budget, qos_s=qos,
        seed=job.seed, profile=profiles[job.model],
    )
    host_s = time.perf_counter() - start
    r = run.result
    trial_epochs = sum(s.n_trials * s.epochs_per_trial for s in r.stages)
    return _finish(job, limits, host_s, r, check_tuning(r), trial_epochs, 0, 0)


def _recorded(job: Job, limits: tuple, out: Path) -> Outcome:
    """Run ``repro train`` in-process with every capture on, writing to ``out``."""
    slo = out / "slo.json"
    slo.write_text(json.dumps(SLO_SPEC), encoding="utf-8")
    flag = "--budget-multiple" if job.objective == "jct" else "--qos-multiple"
    argv = [
        "train", job.model, "--method", job.method, "--seed", str(job.seed),
        flag, str(job.multiple),
        "--telemetry", str(out / "telemetry.json"),
        "--trace", str(out / "trace.json"),
        "--events", str(out / "events.jsonl"),
        "--slo", str(slo),
        "--timeseries", str(out / "timeseries.json"),
        "--journal", str(out / "journal.jsonl"),
        "--save-run", str(out / "store"),
    ]
    runs = []
    original = repro.cli.run_training

    def keep_run(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    repro.cli.run_training = keep_run
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = repro.cli.main(argv)
            host_s = time.perf_counter() - start
    finally:
        repro.cli.run_training = original
    if code not in (0, 1):  # 1 is an SLO verdict, not a failure
        return Outcome(job, host_s, [f"CLI exited {code}"])
    if len(runs) != 1:
        return Outcome(job, host_s, [f"CLI ran {len(runs)} training jobs"])
    r = runs[0].result
    problems = check_training(r) + check_recorded(
        RunStore(out / "store"), out / "journal.jsonl"
    )
    return _finish(job, limits, host_s, r, problems, len(r.epochs), r.n_restarts,
                   getattr(runs[0].scheduler, "n_searches", 0), _artifact_counts(out))


def _artifact_counts(out: Path) -> dict:
    """Observation volume, counted from what the recorded job wrote."""
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    series = json.loads((out / "timeseries.json").read_text(encoding="utf-8"))
    store = out / "store"
    return {
        "obs.events": len(
            (out / "events.jsonl").read_text(encoding="utf-8").splitlines()
        ),
        "obs.trace_spans": sum(1 for e in events if e.get("ph") == "X"),
        "obs.series_points": sum(len(s["values"]) for s in series["series"]),
        "runs.bytes_written": sum(
            p.stat().st_size for p in store.rglob("*") if p.is_file()
        ),
    }


# -- probes -------------------------------------------------------------------

def decision_probes() -> list[Probe]:
    """One allocation decision per span: a training scheduler's
    ``initial_decision`` or ``on_epoch_end``, or one Alg-1 ``plan``."""
    return [
        Probe(cls, method, "training.scheduler")
        for cls in SCHEDULERS
        for method in ("initial_decision", "on_epoch_end")
    ] + [
        Probe(GreedyHeuristicPlanner, "plan", "tuning.plan",
              counts=lambda a, r, s: {
                  "tuning.plan.candidates": r.stats.candidates_evaluated}),
    ]


def layer_probes() -> list[Probe]:
    """Every layer boundary the traced round records."""
    journal = lambda a, r, s: {"kernel.journal.records": 1}  # noqa: E731
    return decision_probes() + [
        Probe(OnlinePredictor, "predict_total_epochs", "training.refit"),
        Probe(TrainingExecutor, "run", "training.executor"),
        Probe(TuningExecutor, "run", "tuning.execute"),
        Probe(FaaSPlatform, "execute_epoch", "faas.epoch",
              counts=lambda a, r, s: {"faas.invocations": a[1].n_functions,
                                      "faas.cold_starts": r.cold_starts}),
        Probe(EventKernel, "run", "kernel.run",
              before=lambda a: a[0].events_processed,
              counts=lambda a, r, s: {"kernel.events": a[0].events_processed - s}),
        Probe(RunJournal, "record_epoch", "kernel.journal", counts=journal),
        Probe(RunJournal, "commit", "kernel.journal", counts=journal),
        Probe(ParetoProfiler, "profile", "analytical.profile",
              counts=lambda a, r, s: {"analytical.points": len(r.all_points)}),
        Probe(repro.runs.saver, "collect_artifacts", "runs.collect"),
        Probe(repro.runs, "save_run", "runs.save"),
        Probe(repro.cli, "main", "cli"),
    ]
