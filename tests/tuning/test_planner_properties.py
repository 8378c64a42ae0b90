"""Property-based tests on Algorithm 1's guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tuning.greedy_planner import (
    COST,
    JCT,
    GreedyHeuristicPlanner,
    PlannerStats,
    _Search,
    replacement_totals,
    stage_terms,
)
from repro.tuning.plan import Objective, PartitionPlan, evaluate_plan
from repro.tuning.sha import SHASpec
from repro.tuning.static_planner import optimal_static_plan


@pytest.fixture(scope="module")
def ladder(lr_profile):
    return sorted(lr_profile.pareto, key=lambda p: p.cost_usd)


class TestPlannerProperties:
    @given(
        mult=st.floats(1.05, 4.0),
        trials=st.sampled_from([32, 128, 512]),
    )
    @settings(max_examples=15, deadline=None)
    def test_budget_always_respected(self, ladder, mult, trials):
        spec = SHASpec(trials, 2, 2)
        cheap = evaluate_plan(PartitionPlan.uniform(ladder[0], spec.n_stages), spec)
        budget = cheap.cost_usd * mult
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget
        )
        assert res.feasible
        assert res.evaluation.cost_usd <= budget * (1 + 1e-9)

    @given(
        mult=st.floats(1.05, 4.0),
        trials=st.sampled_from([32, 128, 512]),
    )
    @settings(max_examples=15, deadline=None)
    def test_never_worse_than_static(self, ladder, mult, trials):
        """The paper's Remark, across random budgets and SHA sizes."""
        spec = SHASpec(trials, 2, 2)
        cheap = evaluate_plan(PartitionPlan.uniform(ladder[0], spec.n_stages), spec)
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap.cost_usd * mult,
        )
        assert res.evaluation.jct_s <= res.static_evaluation.jct_s * (1 + 1e-9)

    @given(frac=st.floats(0.2, 1.0), trials=st.sampled_from([32, 128]))
    @settings(max_examples=15, deadline=None)
    def test_qos_always_respected(self, ladder, frac, trials):
        spec = SHASpec(trials, 2, 2)
        cheap = evaluate_plan(PartitionPlan.uniform(ladder[0], spec.n_stages), spec)
        qos = cheap.jct_s * frac
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_COST_GIVEN_QOS, qos_s=qos
        )
        if res.feasible:
            assert res.evaluation.jct_s <= qos * (1 + 1e-9)
            assert res.evaluation.cost_usd <= res.static_evaluation.cost_usd * (
                1 + 1e-9
            )

    @given(eta=st.sampled_from([2, 3, 4]))
    @settings(max_examples=6, deadline=None)
    def test_reduction_factor_agnostic(self, ladder, eta):
        spec = SHASpec(81 if eta == 3 else 64, eta, 2)
        cheap = evaluate_plan(PartitionPlan.uniform(ladder[0], spec.n_stages), spec)
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap.cost_usd * 1.3,
        )
        assert len(res.plan.stages) == spec.n_stages
        assert res.evaluation.cost_usd <= cheap.cost_usd * 1.3 + 1e-9

    def test_plan_evaluation_matches_public_evaluator(self, ladder):
        """The planner's cached evaluator must agree with evaluate_plan."""
        spec = SHASpec(64, 2, 2)
        cheap = evaluate_plan(PartitionPlan.uniform(ladder[0], spec.n_stages), spec)
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap.cost_usd * 1.5,
        )
        assert res.evaluation == evaluate_plan(res.plan, spec)
        static = optimal_static_plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap.cost_usd * 1.5,
        )
        assert res.static_evaluation == evaluate_plan(static, spec)


def _eq10(cur, cand, objective):
    """Eq. (10)/(12) for one candidate, as the scalar reference."""
    jct_min = objective is Objective.MIN_JCT_GIVEN_BUDGET
    gain = (cur.jct_s - cand.jct_s) if jct_min else (cur.cost_usd - cand.cost_usd)
    spend = (cand.cost_usd - cur.cost_usd) if jct_min else (cand.jct_s - cur.jct_s)
    if gain <= 0:
        return -math.inf
    if spend <= 0:
        return math.inf
    return gain / spend


class TestBatchedEvaluator:
    """The planner's (stage x candidate) matrix totals are exact."""

    @given(
        data=st.data(),
        eta=st.sampled_from([2, 3, 4]),
        trials=st.sampled_from([27, 64, 256, 1024]),
        objective=st.sampled_from(list(Objective)),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_replacement_matches_evaluate_plan(
        self, ladder, data, eta, trials, objective
    ):
        spec = SHASpec(trials, eta, 2)
        idx = np.array(data.draw(st.lists(
            st.integers(0, len(ladder) - 1),
            min_size=spec.n_stages, max_size=spec.n_stages,
        )))
        terms = stage_terms(ladder, spec)
        totals = replacement_totals(terms, idx, terms)
        search = _Search(terms, objective, 1.0, 1.0, 0.001, PlannerStats())
        plan = PartitionPlan(tuple(ladder[j] for j in idx))
        cur = evaluate_plan(plan, spec)
        cur_totals = np.array([cur.jct_s, cur.cost_usd])
        assert search.evaluation(idx, cur_totals) == cur
        benefit = search.marginal_benefit(cur_totals, totals)
        for stage in range(spec.n_stages):
            for point in range(len(ladder)):
                ev = evaluate_plan(plan.replace_stage(stage, ladder[point]), spec)
                assert totals[JCT, stage, point] == ev.jct_s
                assert totals[COST, stage, point] == ev.cost_usd
                assert benefit[stage, point] == _eq10(cur, ev, objective)
