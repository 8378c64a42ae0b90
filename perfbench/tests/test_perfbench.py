"""The benchmark's own tests: job lists, the correctness check, span
arithmetic, the summary statistics and the host-speed scaling.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

import calibrate
import run
from checks import check_recorded, check_training
from jobs import HELD_OUT_SEED, WORKLOADS, Job, job_list
from spans import Tracer, by_name, outermost, self_times

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_is_a_function_of_the_seed(workload):
    assert job_list(workload, 3) == job_list(workload, 3)
    assert job_list(workload, 3, 1) == job_list(workload, 3, 1)
    assert job_list(workload, 3) != job_list(workload, 4)
    assert job_list(workload, 3, 0) != job_list(workload, 3, 1)
    assert job_list(workload, HELD_OUT_SEED) != job_list(workload, 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_asks_for_the_same_mix(workload):
    def mix(jobs):
        return sorted((j.model, j.method, j.objective, j.sha_trials) for j in jobs)

    for r in range(2):
        assert all(mix(job_list(workload, seed, r)) == mix(job_list(workload, 0, r))
                   for seed in range(1, 4))


def test_train_adaptive_covers_every_cell_in_a_round():
    jobs = job_list("train-adaptive", 0)
    assert len({(j.model, j.method, j.objective) for j in jobs}) == len(jobs) == 7 * 2 * 2


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        job_list("no-such-workload", 0)


@pytest.fixture(scope="module")
def training_result():
    from repro.tuning.plan import Objective
    from repro.workflow.runner import run_training

    return run_training(
        "bert-imdb", method="lambdaml", objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=30.0, seed=1,
    ).result


def test_untampered_result_passes(training_result):
    assert check_training(training_result) == []


def test_tampered_cost_counts_as_failed(training_result):
    from program import Outcome

    tampered = dataclasses.replace(
        training_result, cost_usd=training_result.cost_usd * 1.001
    )
    problems = check_training(tampered)
    assert problems and "cost_usd" in problems[0]
    assert Outcome(Job("bert-imdb", "lambdaml", "jct", 2.0, 0, 1), 0.0, problems).failed


def test_jct_below_epoch_time_counts_as_failed(training_result):
    tampered = dataclasses.replace(training_result, jct_s=0.0)
    assert any("jct_s" in p for p in check_training(tampered))


def test_result_without_epochs_counts_as_failed(training_result):
    assert check_training(dataclasses.replace(training_result, epochs=[]))


def test_recorded_job_passes_then_fails_on_a_corrupt_object(tmp_path):
    import program
    from repro.runs import RunStore

    job = Job("bert-imdb", "lambdaml", "jct", 2.5, 0, 1)
    limits = program.constraint(job, program.profile_models([job]))
    out = tmp_path
    outcome = program._recorded(job, limits, out)
    assert not outcome.failed, outcome.problems
    store = RunStore(out / "store")
    obj = next(p for p in store.object_dir.rglob("*") if p.is_file())
    obj.write_text(obj.read_text(encoding="utf-8") + " ", encoding="utf-8")
    assert any("corrupt" in p for p in check_recorded(store, out / "journal.jsonl"))
    journal = out / "journal.jsonl"
    journal.write_text(
        "".join(journal.read_text(encoding="utf-8").splitlines(True)[:-1]),
        encoding="utf-8",
    )
    assert "journal does not end in a commit record" in check_recorded(store, journal)


def test_a_job_that_raises_is_a_failed_outcome(tmp_path):
    import program

    job = Job("bert-imdb", "no-such-method", "jct", 2.0, 0, 1)
    profiles = program.profile_models([job])
    outcome = program.run_job("train-adaptive", job, profiles, tmp_path)
    assert outcome.failed and outcome.problems[0].startswith("raised")


def _traced(ticks, events):
    """A tracer fed ``events`` (a name opens a span, None closes the
    innermost) on a clock that returns ``ticks`` in order."""
    it = iter(ticks)
    tracer = Tracer(clock=lambda: next(it))
    open_spans = []
    for name in events:
        if name is None:
            tracer.end(open_spans.pop())
        else:
            open_spans.append(tracer.begin(name))
    return tracer


def test_self_time_subtracts_children_on_nested_spans():
    # job [0, 10] > decide [1, 6] > refit [2, 5]; job > epoch [7, 9]
    tracer = _traced([0, 1, 2, 5, 6, 7, 9, 10],
                     ["job", "decide", "refit", None, None, "epoch", None, None])
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [10 - 5 - 2, 5 - 3, 3, 2]
    totals = by_name(tracer.spans)
    assert totals["decide"].self_s == 2 and totals["decide"].total_s == 5
    # Self times partition the root span exactly.
    assert sum(self_times(tracer.spans)) == 10


def test_outermost_skips_spans_nested_in_their_own_name():
    # A delegating scheduler: decide [0, 8] > inner decide [1, 7]; decide [9, 10]
    tracer = _traced([0, 1, 7, 8, 9, 10], ["decide", "decide", None, None, "decide", None])
    assert outermost(tracer.spans, "decide") == [8, 1]
    assert outermost(tracer.spans, "decide", 2) == [1]  # one job's spans only
    assert outermost(tracer.spans, "decide", 0, 2) == [8]


def test_spans_closed_out_of_order_are_refused():
    tracer = Tracer(clock=itertools.count().__next__)
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        tracer.end(outer)


def test_percentile_interpolates_like_numpy():
    values = [float(v) for v in range(1, 11)]
    assert run.percentile(values, 50) == pytest.approx(5.5)
    assert run.percentile(values, 95) == pytest.approx(9.55)
    assert run.percentile([], 95) == 0.0


def test_gmean():
    assert run.gmean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    assert run.gmean([]) == 0.0


def test_host_scale_takes_times_to_nominal_speed():
    # A host running the reference twice as slow as nominal halves times.
    assert calibrate.scale([2 * calibrate.NOMINAL_S] * 3) == pytest.approx(0.5)
    assert calibrate.scale([calibrate.NOMINAL_S]) == pytest.approx(1.0)


def test_reference_passes_follow_job_time():
    assert len(calibrate.after_job(0.0)) == 1
    long_job_s = 10 * calibrate.NOMINAL_S / calibrate.SHARE
    assert len(calibrate.after_job(long_job_s)) == 10
    assert all(t > 0 for t in calibrate.after_job(0.0))


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
