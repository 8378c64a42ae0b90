"""Algorithm 1 — the greedy heuristic resource-partitioning planner.

The multiple-choice-knapsack formulation (Eq. 7-9 / 11) is NP-hard, so the
planner improves the optimal *static* plan greedily. With the objective O
(JCT for JCT-min-given-budget, cost for cost-min-given-QoS) and the traded
dimension S (cost resp. time):

1. **Warm start** — the best uniform plan over 𝒫 under the constraint;
   refinement is additionally multi-started from *every* feasible uniform
   plan (the paper's Remark only requires "no worse than static"; with the
   precomputed stage-contribution matrices the extra starts cost
   microseconds and close most of the gap to the exact DP — see
   ``benchmarks/test_ablation_planner.py``).
2. **Recycle & reinvest** (Alg. 1 lines 2-14) — pick the single-stage move
   in the *S-freeing* direction with the best S freed per unit of O damage
   (recycling; for JCT-min this downgrades a stage to a cheaper point —
   early stages, whose q_i is large, win by construction), then repeatedly
   apply the *O-improving* move with the best marginal benefit (Eq. 10/12)
   while total S stays within the warm-start plan's spend. The recycled
   stage is excluded from reinvestment within the round so a round cannot
   simply undo itself.
3. **Spend the remainder** (lines 15-25) — keep applying the best
   O-improving moves (either ladder direction — concurrency waves make
   stage time non-monotone along 𝒫) until the constraint binds or
   improvements fall below δ. Each round scores every (stage, candidate)
   replacement at once; its feasibility mask drops the moves that violate
   the constraint, which realises the tabu set A2' (a move is barred until
   an accepted move changes the headroom, i.e. for the rest of the round).

**Search representation.** A plan under search is an integer vector with
one ladder index per stage. :func:`stage_terms` precomputes the matrices
J[stage, candidate] and C[stage, candidate] of per-stage JCT and cost
contributions, so scoring every single-stage replacement of a plan is a
few numpy operations (:func:`replacement_totals`). Totals are added stage
by stage, left to right, exactly as :func:`~repro.tuning.plan.evaluate_plan`
adds them, so each batched total equals the one-plan-at-a-time evaluation
bit for bit, and ``np.argmax`` over the stage-major matrix keeps the
first-maximum tie-break. Plan objects are built only for the result.

Planner instrumentation (candidates evaluated, wall time) feeds the
scheduling-overhead experiment (Fig. 21a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analytical.pareto import ProfiledAllocation
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.profiling import profile_phase
from repro.profiling.clock import host_clock_s
from repro.tuning.plan import (
    Objective,
    PartitionPlan,
    PlanEvaluation,
    stage_waves,
)
from repro.tuning.sha import StageShape
from repro.tuning.static_planner import optimal_static_plan
from repro.telemetry import get_registry
from repro.slo.events import get_event_bus

# Rows of the stacked (J, C) term matrices and of every totals array.
JCT, COST = 0, 1


@dataclass
class PlannerStats:
    """Instrumentation for the scheduling-overhead experiment (Fig. 21a)."""

    candidates_evaluated: int = 0
    greedy_iterations: int = 0
    wall_time_s: float = 0.0


@dataclass
class PlannerResult:
    """A plan plus its predicted evaluation and instrumentation."""

    plan: PartitionPlan
    evaluation: PlanEvaluation
    static_evaluation: PlanEvaluation
    stats: PlannerStats
    feasible: bool = True


def stage_terms(
    ladder: list[ProfiledAllocation],
    spec: StageShape,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> np.ndarray:
    """Each (stage, candidate)'s JCT and cost contribution, Eq. (7)/(8).

    A stage's contribution depends only on its own allocation, so a plan's
    totals are sums of lookups. Returns J and C stacked, shape
    ``(2, stages, candidates)``; each entry is computed with the same
    float operations as :func:`~repro.tuning.plan.evaluate_plan`.
    """
    time_s = np.array([p.time_s for p in ladder], dtype=float)
    cost_usd = np.array([p.cost_usd for p in ladder], dtype=float)
    terms = np.empty((2, spec.n_stages, len(ladder)))
    for i in range(spec.n_stages):
        q = spec.trials_in_stage(i)
        r = spec.epochs_in_stage(i)
        waves = np.array(
            [stage_waves(q, p.allocation.n_functions, platform) for p in ladder],
            dtype=float,
        )
        terms[JCT, i] = r * time_s * waves
        terms[COST, i] = q * r * cost_usd
    return terms


def replacement_totals(
    terms: np.ndarray, idx: np.ndarray, repl: np.ndarray
) -> np.ndarray:
    """JCT and cost totals of plan ``idx`` with one stage's term replaced.

    ``idx`` holds one ladder index per stage and ``repl`` has shape
    ``(2, stages, m)``. Entry ``[:, s, k]`` of the result is the plan's
    total with stage s's terms swapped for ``repl[:, s, k]``. Stage terms
    are added left to right, never pairwise, so every entry is bit-identical
    to evaluating that modified plan on its own.
    """
    n, m = idx.shape[0], repl.shape[2]
    stages = np.arange(n)
    # summands[i, :, s, k]: stage i's terms in the plan whose stage s is
    # replaced by candidate k — the current terms, with repl where i == s.
    summands = np.empty((n, 2, n, m))
    summands[...] = terms[:, stages, idx].T[:, :, None, None]
    summands[stages, :, stages] = repl.transpose(1, 0, 2)
    # One vector add per stage, in stage order (np.sum may add pairwise).
    totals = summands[0]
    for term in summands[1:]:
        totals += term
    return totals


@dataclass
class _Search:
    """One planning pass over the (stage × candidate) term matrices."""

    terms: np.ndarray
    objective: Objective
    budget_usd: float | None
    qos_s: float | None
    delta: float
    stats: PlannerStats

    def __post_init__(self) -> None:
        # O and S as rows of a totals array (see the module docstring).
        jct_min = self.objective is Objective.MIN_JCT_GIVEN_BUDGET
        self.obj, self.spend = (JCT, COST) if jct_min else (COST, JCT)
        self.stages = np.arange(self.terms.shape[1])

    def feasible(self, totals: np.ndarray) -> np.ndarray | bool:
        """Which of ``totals`` (rows JCT, COST) meet every given constraint."""
        ok = True
        if self.budget_usd is not None:
            ok = ok & (totals[COST] <= self.budget_usd)
        if self.qos_s is not None:
            ok = ok & (totals[JCT] <= self.qos_s)
        return ok

    def marginal_benefit(self, cur: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Eq. (10)/(12): objective improvement per unit of extra spend.

        Moves that improve the objective *and* reduce spend (possible via
        concurrency-wave effects) get an infinite benefit — always take
        them first.
        """
        gain = cur[self.obj] - cand[self.obj]
        spend = cand[self.spend] - cur[self.spend]
        benefit = np.divide(
            gain, spend, out=np.full(gain.shape, np.inf), where=spend > 0
        )
        benefit[gain <= 0] = -np.inf
        return benefit

    def recycle_benefit(self, cur: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Spend freed per unit of objective damage (the recycling metric)."""
        freed = cur[self.spend] - cand[self.spend]
        damage = cand[self.obj] - cur[self.obj]
        return np.where(freed <= 0, -np.inf, freed / np.maximum(damage, 1e-12))

    def steps(
        self, idx: np.ndarray, direction: int, exclude: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-step single-stage moves along the cost-sorted ladder.

        ``direction=+1`` moves a stage to the next more expensive (faster)
        point, ``-1`` to the next cheaper one. Returns the moved-to
        columns, which stages have such a move, and the moves' totals.
        """
        cols = idx + direction
        valid = (cols >= 0) & (cols < self.terms.shape[2])
        if exclude is not None:
            valid[exclude] = False
        self.stats.candidates_evaluated += int(valid.sum())
        cols = np.where(valid, cols, idx)
        repl = self.terms[:, self.stages, cols][:, :, None]
        return cols, valid, replacement_totals(self.terms, idx, repl)[:, :, 0]

    def improve(
        self, idx: np.ndarray, totals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Counter deltas credit each refinement phase with exactly the plan
        # evaluations it performed, so the per-frame "candidates_evaluated"
        # counters sum to stats.candidates_evaluated.
        stats = self.stats
        with profile_phase("planner/recycle_reinvest") as ph:
            before = stats.candidates_evaluated
            stats.candidates_evaluated += 1  # the start plan itself
            idx, totals = self.recycle_and_reinvest(idx, totals)
            ph.add("candidates_evaluated", stats.candidates_evaluated - before)
        with profile_phase("planner/spend_remainder") as ph:
            before = stats.candidates_evaluated
            idx, totals = self.spend_remainder(idx, totals)
            ph.add("candidates_evaluated", stats.candidates_evaluated - before)
        return idx, totals

    # -- phase 1: recycle & reinvest (Alg. 1 lines 2-14) ---------------------
    def recycle_and_reinvest(
        self, best: np.ndarray, best_tot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Recycling frees the traded dimension S: cheaper points for
        # JCT-min (direction -1), faster points for cost-min (+1).
        recycle_dir = -1 if self.obj == JCT else +1
        spend_cap = best_tot[self.spend]
        for _ in range(64):  # bounded outer loop; converges much earlier
            self.stats.greedy_iterations += 1
            cols, valid, totals = self.steps(best, recycle_dir)
            benefit = np.where(valid, self.recycle_benefit(best_tot, totals), -np.inf)
            recycled = int(np.argmax(benefit))
            if not benefit[recycled] > 0:
                break
            a_l = best.copy()
            a_l[recycled] = cols[recycled]
            a_l_tot = totals[:, recycled]
            while True:
                cols, valid, totals = self.steps(a_l, -recycle_dir, recycled)
                benefit = self.marginal_benefit(a_l_tot, totals)
                benefit[~valid | (totals[self.spend] > spend_cap)] = -np.inf
                stage = int(np.argmax(benefit))
                if not benefit[stage] > 0:
                    break
                a_l[stage] = cols[stage]
                a_l_tot = totals[:, stage]
            improvement = best_tot[self.obj] - a_l_tot[self.obj]
            if improvement <= self.delta * abs(best_tot[self.obj]):
                break
            if not self.feasible(a_l_tot):
                break
            best, best_tot = a_l, a_l_tot
        return best, best_tot

    # -- phase 2: spend the remaining headroom (Alg. 1 lines 15-25) ----------
    def spend_remainder(
        self, best: np.ndarray, best_tot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self.stats.greedy_iterations += 1  # phase 2 counts as one estimation round
        n_stages, n_candidates = self.terms.shape[1:]
        best = best.copy()
        for _ in range(512):
            # Phase 2 considers *every* (stage, candidate) replacement, not
            # just ladder neighbours: the boundary has cliffs (e.g. the
            # cheap DynamoDB tail vs the fast VM-PS cluster) that one-step
            # moves cannot cross, and the knapsack optimum routinely jumps
            # them.
            totals = replacement_totals(self.terms, best, self.terms)
            self.stats.candidates_evaluated += n_stages * (n_candidates - 1)
            benefit = self.marginal_benefit(best_tot, totals)
            benefit[~self.feasible(totals)] = -np.inf
            benefit[self.stages, best] = -np.inf  # not a move
            # Stage-major argmax: the first maximum, as max() would pick.
            stage, point = divmod(int(np.argmax(benefit)), n_candidates)
            # Individual moves can be small, so phase 2 runs until no
            # strictly improving feasible move remains (δ governs the
            # coarser phase-1 rounds).
            if not benefit[stage, point] > 0:
                break
            best[stage] = point
            best_tot = totals[:, stage, point]
        return best, best_tot

    def evaluation(self, idx: np.ndarray, totals: np.ndarray) -> PlanEvaluation:
        """The :class:`PlanEvaluation` of plan ``idx`` with ``totals``."""
        jct, cost = self.terms[:, self.stages, idx].tolist()
        return PlanEvaluation(
            jct_s=float(totals[JCT]),
            cost_usd=float(totals[COST]),
            stage_jct_s=tuple(jct),
            stage_cost_usd=tuple(cost),
        )


@dataclass
class GreedyHeuristicPlanner:
    """Plans per-stage allocations for SHA under a budget or QoS constraint.

    Attributes:
        delta: minimum relative objective improvement to keep iterating —
            the paper's stopping threshold δ.
        platform: platform config used to evaluate plans.
    """

    delta: float = 0.001
    platform: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)

    def plan(
        self,
        candidates: list[ProfiledAllocation],
        spec: StageShape,
        objective: Objective,
        budget_usd: float | None = None,
        qos_s: float | None = None,
    ) -> PlannerResult:
        """Run Algorithm 1 and return the partitioning plan.

        When no static plan satisfies the constraint, the closest-to-
        feasible static plan is returned with ``feasible=False``.
        """
        start = host_clock_s()
        stats = PlannerStats()
        with profile_phase("planner/plan"):
            ladder = sorted(candidates, key=lambda p: p.cost_usd)
            with profile_phase("planner/build_cache"):
                search = _Search(
                    stage_terms(ladder, spec, self.platform),
                    objective, budget_usd, qos_s, self.delta, stats,
                )
            registry = get_registry()

            with profile_phase("planner/warm_start") as ph:
                warm = optimal_static_plan(
                    ladder, spec, objective, budget_usd=budget_usd, qos_s=qos_s,
                    platform=self.platform,
                )
                # The warm start enumerates every candidate as a uniform plan;
                # account for those evaluations (they dominate WO-pa's
                # overhead).
                stats.candidates_evaluated += len(ladder)
                # Totals of every uniform plan, added in stage order.
                uniform = np.cumsum(search.terms, axis=1)[:, -1]
                warm_j = ladder.index(warm.stages[0])
                warm_tot = uniform[:, warm_j]
                stats.candidates_evaluated += 1
                feasible = bool(search.feasible(warm_tot))
                # Greedy refinement is a local search; multi-starting it
                # from every feasible uniform plan (a few dozen starts)
                # closes most of the optimality gap against the exact DP at
                # a cost that is still a small fraction of one cold start.
                starts = []
                if feasible:
                    stats.candidates_evaluated += len(ladder)
                    others = np.flatnonzero(search.feasible(uniform)).tolist()
                    starts = [warm_j] + [j for j in others if j != warm_j]
                ph.add("candidates_evaluated", stats.candidates_evaluated)

            n_stages = spec.n_stages
            best, best_tot = np.full(n_stages, warm_j), warm_tot
            for j in starts:
                idx, totals = search.improve(np.full(n_stages, j), uniform[:, j])
                if totals[search.obj] < best_tot[search.obj]:
                    best, best_tot = idx, totals
            best_plan = PartitionPlan(tuple(ladder[j] for j in best.tolist()))
            best_ev = search.evaluation(best, best_tot)
            warm_ev = search.evaluation(np.full(n_stages, warm_j), warm_tot)
        stats.wall_time_s = host_clock_s() - start
        registry.counter(
            "repro_planner_candidates_evaluated_total",
            "Plan evaluations performed by the knapsack heuristic",
        ).inc(stats.candidates_evaluated)
        registry.counter(
            "repro_planner_greedy_iterations_total",
            "Recycle/reinvest and spend-remainder rounds",
        ).inc(stats.greedy_iterations)
        registry.histogram(
            "repro_planner_wall_seconds",
            "Host wall-clock time per planning pass",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        ).observe(stats.wall_time_s)
        bus = get_event_bus()
        if bus.enabled:
            bus.emit(
                "plan_chosen", 0.0, scope="tune",
                n_stages=len(best_plan.stages),
                predicted_jct_s=best_ev.jct_s,
                predicted_cost_usd=best_ev.cost_usd,
                feasible=feasible,
                candidates_evaluated=stats.candidates_evaluated,
            )
        return PlannerResult(
            plan=best_plan,
            evaluation=best_ev,
            static_evaluation=warm_ev,
            stats=stats,
            feasible=feasible,
        )
