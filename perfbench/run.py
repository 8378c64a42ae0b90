"""Closed-loop benchmark of the CE-scaling reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, one thread: the next job starts when the previous
one returns. The seed fixes the workload's rounds of jobs (see ``jobs.py``);
whole rounds run until at least ``--seconds`` of job time is measured.
Host times are scaled to a host of fixed speed by a reference workload run
between jobs (``calibrate.py``). With ``--trace 0`` the last stdout line
reports the end-to-end metrics; with ``--trace 1`` the first round runs
once untraced and once traced, and the line reports per-layer self time
and counts instead. See README.md.
"""

import time

START = time.perf_counter()  # set-up is timed from the first statement

import os  # noqa: E402

# One thread: numpy's BLAS would otherwise start a worker per core and
# contend with the benchmark's own thread on a small host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from jobs import job_list  # noqa: E402
from spans import Tracer, by_name, installed, outermost  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_PROBES = 2  # extra fresh-interpreter set-ups whose median is reported
MIN_P95_DECISIONS = 200
SETUP_REFERENCE_PASSES = 5

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s_gmean": "s",
    "decide_ms_gmean": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "training.refit.calls": "count",
    "training.refit.self_s": "s",
    "training.refit.ms_p50": "ms",
    "training.refit.ms_p95": "ms",
    "training.scheduler.self_s": "s",
    "training.scheduler.searches": "count",
    "training.executor.self_s": "s",
    "tuning.plan.calls": "count",
    "tuning.plan.self_s": "s",
    "tuning.plan.ms_p50": "ms",
    "tuning.plan.candidates": "count",
    "tuning.plan.candidates_per_s": "1/s",
    "tuning.execute.self_s": "s",
    "faas.epoch.calls": "count",
    "faas.epoch.self_s": "s",
    "faas.invocations": "count",
    "faas.cold_starts": "count",
    "faas.epoch.us_per_invocation": "us",
    "kernel.run.self_s": "s",
    "kernel.events": "count",
    "kernel.events_per_s": "1/s",
    "kernel.journal.records": "count",
    "kernel.journal.self_s": "s",
    "analytical.profile.calls": "count",
    "analytical.profile.self_s": "s",
    "analytical.points_per_s": "1/s",
    "runs.collect.self_s": "s",
    "runs.save.self_s": "s",
    "runs.bytes_written": "bytes",
    "obs.events": "count",
    "obs.trace_spans": "count",
    "obs.series_points": "count",
    "cli.self_s": "s",
    "sim.epochs": "count",
    "sim.jct_s": "s",
    "sim.cost_usd": "usd",
    "sim.restarts": "count",
    "sim.constraint_met_share": "share",
    "bench.trace_overhead_ratio": "ratio",
}


def percentile(values, q: int) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def gmean(values) -> float:
    """Geometric mean; 0.0 when empty."""
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe_s(args) -> float:
    """One full set-up in a fresh interpreter, as that interpreter timed
    and scaled it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_rounds(program, args, profiles, scratch, tracer, probes, max_rounds=None):
    """Whole rounds of jobs until ``--seconds`` of job time is measured,
    or ``max_rounds`` rounds. After each job the host reference runs."""
    outcomes, reference, rounds, busy = [], [], 0, 0.0
    with installed(tracer, probes):
        while True:
            for job in job_list(args.workload, args.seed, rounds):
                lo = len(tracer.spans)
                outcome = program.run_job(args.workload, job, profiles, scratch)
                outcome.spans = (lo, len(tracer.spans))
                outcomes.append(outcome)
                busy += outcome.host_s
                reference += calibrate.after_job(outcome.host_s)
            rounds += 1
            if busy >= args.seconds or rounds == max_rounds:
                return outcomes, reference, rounds


def end_to_end(outcomes, tracer, setup_s, scale) -> tuple[dict, dict]:
    """The gated metrics, host times scaled to nominal host speed by
    ``scale`` (see calibrate.py), and the same before scaling."""
    ok = [o for o in outcomes if not o.failed]
    busy = sum(o.host_s for o in outcomes)
    # Each job's decisions, so that a job weighs the same however many
    # epochs its seed draws: train-recorded's few CE-scaling jobs decide in
    # milliseconds, its static baselines in microseconds.
    per_job_ms = [
        [d * 1e3 for name in ("training.scheduler", "tuning.plan")
         for d in outermost(tracer.spans, name, *o.spans)]
        for o in ok
    ]
    decisions_ms = [d for job in per_job_ms for d in job]
    host = {
        "jobs_per_s": ratio(len(ok), busy),
        "job_s_gmean": gmean([o.host_s for o in ok]),
        "decide_ms_gmean": gmean([gmean(job) for job in per_job_ms if job]),
    }
    metrics = {
        name: value / scale if name == "jobs_per_s" else value * scale
        for name, value in host.items()
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = setup_s
    host.update(
        job_s_p50=percentile([o.host_s for o in ok], 50),
        decide_ms_p50=percentile(decisions_ms, 50),
        decide_ms_p95=percentile(decisions_ms, 95),
        decisions=len(decisions_ms),
        scale=scale,
    )
    return metrics, host


def per_layer(outcomes, tracer, overhead_ratio) -> dict:
    layer = by_name(tracer.spans)
    counts = tracer.counts
    refit_ms = [d * 1e3 for d in layer["training.refit"].durations_s]
    plan = layer["tuning.plan"]
    epoch = layer["faas.epoch"]
    total = lambda key: sum(o.obs.get(key, 0) for o in outcomes)  # noqa: E731
    return {
        "training.refit.calls": layer["training.refit"].calls,
        "training.refit.self_s": layer["training.refit"].self_s,
        "training.refit.ms_p50": percentile(refit_ms, 50),
        "training.refit.ms_p95": percentile(refit_ms, 95),
        "training.scheduler.self_s": layer["training.scheduler"].self_s,
        "training.scheduler.searches": sum(o.searches for o in outcomes),
        "training.executor.self_s": layer["training.executor"].self_s,
        "tuning.plan.calls": plan.calls,
        "tuning.plan.self_s": plan.self_s,
        "tuning.plan.ms_p50": percentile([d * 1e3 for d in plan.durations_s], 50),
        "tuning.plan.candidates": counts["tuning.plan.candidates"],
        "tuning.plan.candidates_per_s": ratio(
            counts["tuning.plan.candidates"], plan.total_s),
        "tuning.execute.self_s": layer["tuning.execute"].self_s,
        "faas.epoch.calls": epoch.calls,
        "faas.epoch.self_s": epoch.self_s,
        "faas.invocations": counts["faas.invocations"],
        "faas.cold_starts": counts["faas.cold_starts"],
        "faas.epoch.us_per_invocation": 1e6 * ratio(
            epoch.total_s, counts["faas.invocations"]),
        "kernel.run.self_s": layer["kernel.run"].self_s,
        "kernel.events": counts["kernel.events"],
        "kernel.events_per_s": ratio(
            counts["kernel.events"], layer["kernel.run"].total_s),
        "kernel.journal.records": counts["kernel.journal.records"],
        "kernel.journal.self_s": layer["kernel.journal"].self_s,
        "analytical.profile.calls": layer["analytical.profile"].calls,
        "analytical.profile.self_s": layer["analytical.profile"].self_s,
        "analytical.points_per_s": ratio(
            counts["analytical.points"], layer["analytical.profile"].total_s),
        "runs.collect.self_s": layer["runs.collect"].self_s,
        "runs.save.self_s": layer["runs.save"].self_s,
        "runs.bytes_written": total("runs.bytes_written"),
        "obs.events": total("obs.events"),
        "obs.trace_spans": total("obs.trace_spans"),
        "obs.series_points": total("obs.series_points"),
        "cli.self_s": layer["cli"].self_s,
        "sim.epochs": sum(o.epochs for o in outcomes),
        "sim.jct_s": sum(o.jct_s for o in outcomes),
        "sim.cost_usd": sum(o.cost_usd for o in outcomes),
        "sim.restarts": sum(o.restarts for o in outcomes),
        "sim.constraint_met_share": ratio(
            sum(o.met for o in outcomes), len(outcomes)),
        "bench.trace_overhead_ratio": overhead_ratio,
    }


def sim_digest(outcomes) -> str:
    """Digest of the simulated per-job outcomes of the first round; a
    speed-only change keeps it."""
    rows = [
        [list(o.job), repr(o.jct_s), repr(o.cost_usd), o.epochs, o.restarts]
        for o in outcomes
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def report(args, outcomes, rounds, metrics, units, host, digest) -> None:
    """Human-readable lines ahead of the JSON result line."""
    failed = [o for o in outcomes if o.failed]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {rounds}  jobs {len(outcomes)}")
    print("# model method objective multiple sha_trials job_seed | "
          "host_s sim_jct_s sim_cost_usd epochs restarts constraint_met")
    for o in outcomes:
        j = o.job
        print(f"job {j.model} {j.method} {j.objective} {j.multiple} "
              f"{j.sha_trials} {j.seed} | {o.host_s:.4f} {o.jct_s:.3f} "
              f"{o.cost_usd:.4f} {o.epochs} {o.restarts} {o.met}"
              + (f"  FAILED: {'; '.join(o.problems)}" if o.failed else ""))
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric error_rate {ratio(len(failed), len(outcomes)):.6g} share "
          f"({len(failed)} of {len(outcomes)} jobs failed)")
    if host:
        # Unscaled host time and point percentiles, for reading only: see
        # README.md on why the gated metrics are scaled means.
        print(f"host scale {host['scale']:.6g} (nominal / measured reference)")
        for name in ("jobs_per_s", "job_s_gmean", "job_s_p50", "decide_ms_gmean",
                     "decide_ms_p50", "decide_ms_p95"):
            print(f"host {name} {host[name]:.6g}")
        if host["decisions"] < MIN_P95_DECISIONS:
            print(f"note {host['decisions']} decisions (< {MIN_P95_DECISIONS}): "
                  "decide_ms_p95 is near the maximum")
    print(f"sim.digest {digest}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    first_round = job_list(args.workload, args.seed)
    import program

    profiles = program.profile_models(first_round)
    setup_s = time.perf_counter() - START
    # The first pass warms the reference up; set-up is not charged for any.
    reference = [calibrate.reference_s() for _ in range(SETUP_REFERENCE_PASSES + 1)]
    setup_s *= calibrate.scale(reference[1:])
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        setup_s = statistics.median(
            [setup_s] + [setup_probe_s(args) for _ in range(SETUP_PROBES)]
        )

    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        plain = Tracer()
        outcomes, reference, rounds = run_rounds(
            program, args, profiles, scratch, plain, program.decision_probes(),
            max_rounds=1 if args.trace else None,
        )
        if args.trace:
            # The same first round again, every layer probed, set-up included.
            traced = Tracer()
            with installed(traced, program.layer_probes()):
                profiles = program.profile_models(first_round)
            traced_outcomes, _, _ = run_rounds(
                program, args, profiles, scratch, traced, program.layer_probes(),
                max_rounds=1,
            )
            overhead = ratio(sum(o.host_s for o in traced_outcomes),
                             sum(o.host_s for o in outcomes))
            metrics = per_layer(traced_outcomes, traced, overhead)
            units, host = PER_LAYER, {}
            outcomes += traced_outcomes
            rounds += 1
        else:
            metrics, host = end_to_end(outcomes, plain, setup_s,
                                       calibrate.scale(reference))
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    failed = sum(o.failed for o in outcomes)
    report(args, outcomes, rounds, metrics, units, host,
           sim_digest(outcomes[: len(first_round)]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
