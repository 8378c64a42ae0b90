"""Golden Algorithm-1 plans: the planner must reproduce them bit for bit.

``planner_golden.json`` records, for every case below, the per-stage
allocations the greedy planner chose, the ``repr`` of its predicted and
static JCT/cost, feasibility and its instrumentation counts. Any change to
the planner's search, tie-breaking or float summation order shows up here as
an exact mismatch, so the comparison is ``==`` throughout.

Regenerate (only when a plan change is intended, and explain it)::

    PYTHONPATH=src python tests/tuning/test_planner_golden.py --write
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.ml.models import WORKLOADS
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.hyperband import BracketSpec
from repro.tuning.plan import Objective
from repro.tuning.sha import SHASpec
from repro.workflow.job import tuning_envelope
from repro.workflow.runner import profile_workload

FIXTURE = Path(__file__).with_name("planner_golden.json")

SHA_SIZES = (32, 128, 256)
# Two constraint multiples per objective: the tuning experiments' 1.3x
# budget / 1.5x deadline and a looser 2.0x / 3.0x.
MULTIPLES = {"jct": (1.3, 2.0), "cost": (1.5, 3.0)}
OBJECTIVES = {"jct": Objective.MIN_JCT_GIVEN_BUDGET, "cost": Objective.MIN_COST_GIVEN_QOS}


def cases() -> dict[str, tuple]:
    """name -> (model, stage shape, objective, constraint multiple, use_pareto)."""
    out = {}
    for model in WORKLOADS:
        for objective, multiples in MULTIPLES.items():
            for trials in SHA_SIZES:
                for multiple in multiples:
                    out[f"{model}/{objective}/sha{trials}/x{multiple}"] = (
                        model, SHASpec(trials, 2, 2), objective, multiple, True
                    )
    for objective, multiples in MULTIPLES.items():
        multiple = multiples[0]
        out[f"lr-higgs/{objective}/eta3/x{multiple}"] = (
            "lr-higgs", SHASpec(81, 3, 2), objective, multiple, True
        )
        out[f"mobilenet-cifar10/{objective}/eta4/x{multiple}"] = (
            "mobilenet-cifar10", SHASpec(64, 4, 2), objective, multiple, True
        )
        out[f"svm-higgs/{objective}/hyperband/x{multiple}"] = (
            "svm-higgs", BracketSpec(n_trials=27, reduction_factor=3, initial_epochs=1),
            objective, multiple, True,
        )
        # Below the cheapest (fastest) uniform plan: the planner falls back
        # to the closest-to-feasible static plan with feasible=False.
        out[f"lr-yfcc/{objective}/infeasible/x0.5"] = (
            "lr-yfcc", SHASpec(64, 2, 2), objective, 0.5, True
        )
    # Fig. 21a's WO-pa ablation: the whole feasible grid, not the boundary.
    out["mobilenet-cifar10/jct/wo-pa/sha256/x1.3"] = (
        "mobilenet-cifar10", SHASpec(256, 2, 2), "jct", 1.3, False
    )
    return out


CASES = cases()


@lru_cache(maxsize=None)
def _profile(model: str, use_pareto: bool):
    return profile_workload(model, use_pareto=use_pareto)


def record(model, spec, objective, multiple, use_pareto) -> dict:
    profile = _profile(model, use_pareto)
    env = tuning_envelope(profile, spec)
    if objective == "jct":
        constraint = {"budget_usd": env.budget(multiple)}
    else:
        constraint = {"qos_s": env.qos(multiple)}
    res = GreedyHeuristicPlanner().plan(
        profile.candidates, spec, OBJECTIVES[objective], **constraint
    )
    return {
        "stages": [p.allocation.describe() for p in res.plan.stages],
        "jct_s": repr(res.evaluation.jct_s),
        "cost_usd": repr(res.evaluation.cost_usd),
        "static_jct_s": repr(res.static_evaluation.jct_s),
        "static_cost_usd": repr(res.static_evaluation.cost_usd),
        "feasible": res.feasible,
        "candidates_evaluated": res.stats.candidates_evaluated,
        "greedy_iterations": res.stats.greedy_iterations,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_matches_golden(golden, name):
    assert record(*CASES[name]) == golden[name]


def test_fixture_has_an_infeasible_case(golden):
    assert any(not rec["feasible"] for rec in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_planner_golden.py --write")
    data = {name: record(*args) for name, args in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {FIXTURE}")
