"""Resource-partitioning plans for hyperparameter tuning (paper §III-C).

A plan assigns one allocation θ_i (a point on the Pareto boundary 𝒫) to
every SHA stage. Its predicted JCT and cost follow Eq. (7)-(8):

* ``T_h(a) = Σ_i r_i * t'(θ_i) * waves_i`` — stage durations are serial;
  ``waves_i = ceil(q_i * n_i / C)`` accounts for the account concurrency
  limit C forcing trials to queue in waves when a stage demands more
  functions than the platform grants.
* ``C_h(a) = Σ_i q_i * r_i * c'(θ_i)`` — every trial of every stage pays
  its per-epoch cost.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.analytical.pareto import ProfiledAllocation
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.tuning.sha import SHASpec, StageShape


class Objective(enum.Enum):
    """What the planner optimizes (the other dimension is the constraint)."""

    MIN_JCT_GIVEN_BUDGET = "min_jct"
    MIN_COST_GIVEN_QOS = "min_cost"


@dataclass(frozen=True, slots=True)
class PartitionPlan:
    """One allocation per SHA stage."""

    stages: tuple[ProfiledAllocation, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValidationError("a plan needs at least one stage")

    def replace_stage(self, index: int, point: ProfiledAllocation) -> "PartitionPlan":
        """A copy with stage ``index`` reassigned to ``point``."""
        stages = list(self.stages)
        stages[index] = point
        return PartitionPlan(tuple(stages))

    @staticmethod
    def uniform(point: ProfiledAllocation, n_stages: int) -> "PartitionPlan":
        """A static plan: the same allocation for every stage."""
        return PartitionPlan(tuple([point] * n_stages))


@dataclass(frozen=True, slots=True)
class PlanEvaluation:
    """Predicted JCT and cost of a plan under a given SHA spec."""

    jct_s: float
    cost_usd: float
    stage_jct_s: tuple[float, ...]
    stage_cost_usd: tuple[float, ...]


def stage_waves(
    q_trials: int, n_functions: int, platform: PlatformConfig = DEFAULT_PLATFORM
) -> int:
    """Execution waves forced by the account concurrency limit."""
    demanded = q_trials * n_functions
    return max(1, math.ceil(demanded / platform.limits.max_concurrency))


def sum_in_order(terms: list[float]) -> float:
    """Σ terms, added left to right.

    Plan totals use this fixed order so that they do not depend on the
    interpreter (``sum`` compensates float additions from Python 3.12 on)
    and so that the planner's batched totals, which add stage terms in the
    same order, match :func:`evaluate_plan` bit for bit.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


def evaluate_plan(
    plan: PartitionPlan,
    spec: StageShape,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> PlanEvaluation:
    """Predicted JCT/cost of ``plan`` — Eq. (7) objective and (8) cost."""
    if len(plan.stages) != spec.n_stages:
        raise ValidationError(
            f"plan has {len(plan.stages)} stages, SHA spec needs {spec.n_stages}"
        )
    stage_jct = []
    stage_cost = []
    for i, point in enumerate(plan.stages):
        q = spec.trials_in_stage(i)
        r = spec.epochs_in_stage(i)
        waves = stage_waves(q, point.allocation.n_functions, platform)
        stage_jct.append(r * point.time_s * waves)
        stage_cost.append(q * r * point.cost_usd)
    return PlanEvaluation(
        jct_s=sum_in_order(stage_jct),
        cost_usd=sum_in_order(stage_cost),
        stage_jct_s=tuple(stage_jct),
        stage_cost_usd=tuple(stage_cost),
    )
