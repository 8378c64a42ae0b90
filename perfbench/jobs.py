"""Seeded job lists for the three benchmark workloads.

A job list is a pure function of (workload, seed, round). The structure
of each list is fixed so that every seed and round asks the program for
the same mix of work: the seed draws the constraint multiples, the job
seeds and the order. This module does not import the program; the
program only ever sees the tuples generated here.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# The seven Table-IV (model, dataset) pairs, in table order.
MODELS = (
    "lr-higgs",
    "svm-higgs",
    "lr-yfcc",
    "svm-yfcc",
    "mobilenet-cifar10",
    "resnet50-cifar10",
    "bert-imdb",
)
OBJECTIVES = ("jct", "cost")
SHA_SIZES = (64, 128, 256)
ADAPTIVE_METHODS = ("ce-scaling", "cirrus")
STATIC_METHODS = ("lambdaml", "cirrus-static", "siren")
# Constraint multiples of the model's envelope: the budget (JCT-min) and
# deadline (cost-min) the paper's Fig. 12, 13 and 9 experiments use. The
# tuning deadline is 1.5 rather than Fig. 10's 3.0, where one resnet50
# cost-min plan alone takes several seconds.
TRAIN_BUDGET, TRAIN_QOS = 2.5, 3.0
TUNE_BUDGET, TUNE_QOS = 1.3, 1.5

# Seed reserved for held-out confirmation of a performance claim. Develop
# and tune a change on other seeds; run this one only to confirm.
HELD_OUT_SEED = 7919


class Job(NamedTuple):
    """One job as the program receives it.

    ``objective`` is ``"jct"`` (minimise JCT under a budget) or ``"cost"``
    (minimise cost under a QoS deadline); ``multiple`` scales the model's
    constraint envelope into that budget or deadline. ``sha_trials`` is the
    first-stage SHA trial count of a tuning job and 0 for a training job.
    """

    model: str
    method: str
    objective: str
    multiple: float
    sha_trials: int
    seed: int


def _multiple(rng: random.Random, objective: str, jct: float, cost: float) -> float:
    """A constraint multiple within 5% of the objective's centre value.

    Host work, above all the planner's, grows steeply with the multiple
    (a 10% band moved one plan's time 2x), so a narrow band keeps every
    seed's rounds at nearly the same work.
    """
    centre = jct if objective == "jct" else cost
    return round(centre * rng.uniform(0.95, 1.05), 4)


# Every round holds every cell of its workload, so a run's mix of work is
# the same however many rounds fit in its time; the seed draws only within
# cells (constraint multiple, job seed) and the order.

def _train_adaptive(rng: random.Random) -> list[Job]:
    # Each model under both objectives, with CE-scaling and with modified
    # Cirrus: every (model, objective, method) cell in every round.
    jobs = []
    for model in MODELS:
        for objective in OBJECTIVES:
            for method in ADAPTIVE_METHODS:
                multiple = _multiple(rng, objective, TRAIN_BUDGET, TRAIN_QOS)
                jobs.append(Job(model, method, objective, multiple, 0,
                                rng.randrange(1_000_000)))
    return jobs


def _tune_plan(rng: random.Random) -> list[Job]:
    # Each model under both objectives. The SHA size rotates over models
    # and objectives by position, not by seed: planner work grows steeply
    # with it, and a seeded draw would change how much work a round holds.
    jobs = []
    for i, model in enumerate(MODELS):
        for j, objective in enumerate(OBJECTIVES):
            multiple = _multiple(rng, objective, TUNE_BUDGET, TUNE_QOS)
            jobs.append(Job(model, "ce-scaling", objective, multiple,
                            SHA_SIZES[(i + j) % len(SHA_SIZES)],
                            rng.randrange(1_000_000)))
    return jobs


def _train_recorded(rng: random.Random) -> list[Job]:
    # The static baselines on every model under both objectives, plus
    # CE-scaling on the short bert-imdb job under both objectives, so the
    # Alg-2 predictor and re-selection events reach the recorded stream.
    cells = [(model, method) for model in MODELS for method in STATIC_METHODS]
    cells.append(("bert-imdb", "ce-scaling"))
    jobs = []
    for model, method in cells:
        for objective in OBJECTIVES:
            multiple = _multiple(rng, objective, TRAIN_BUDGET, TRAIN_QOS)
            jobs.append(Job(model, method, objective, multiple, 0,
                            rng.randrange(1_000_000)))
    return jobs


GENERATORS = {
    "train-adaptive": _train_adaptive,
    "tune-plan": _tune_plan,
    "train-recorded": _train_recorded,
}
WORKLOADS = tuple(GENERATORS)


def job_list(workload: str, seed: int, round_index: int = 0) -> list[Job]:
    """Round ``round_index`` of the workload's jobs for ``seed``, in run order.

    A run works through rounds 0, 1, 2, ... until its time is up; every
    round holds the same mix with fresh draws, so a longer run averages
    over more inputs instead of repeating the same ones.
    """
    try:
        generate = GENERATORS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
        ) from None
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    jobs = generate(rng)
    rng.shuffle(jobs)
    return jobs
