"""The correctness check behind the benchmark's failure count.

A job fails if it raises, if the CLI exits 2, or if its result breaks one
of the invariants below. Each check returns the list of problems found;
an empty list means the job passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Float accumulation order may differ between the program's running total
# and a re-summation of its parts; anything beyond this relative slack is
# a real disagreement.
REL_TOL = 1e-9


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _sum_check(total: float, parts: list[float], what: str) -> list[str]:
    expected = math.fsum(parts)
    if math.isclose(total, expected, rel_tol=REL_TOL, abs_tol=1e-12):
        return []
    return [f"{what} {total!r} != sum of its parts {expected!r}"]


def check_training(result) -> list[str]:
    """Invariants of a training ``JobResult``."""
    epochs = result.epochs
    if not epochs:
        return ["no epoch was run"]
    values = [result.jct_s, result.cost_usd]
    for e in epochs:
        values += [e.time.load_s, e.time.compute_s, e.time.sync_s,
                   e.cost.invocation_usd, e.cost.compute_usd, e.cost.storage_usd]
    if not _finite(values):
        return ["a time or cost is not finite"]
    problems = _sum_check(
        result.cost_usd, [e.cost.total_usd for e in epochs], "cost_usd"
    )
    busy = math.fsum(e.time.total_s for e in epochs)
    if result.jct_s < busy * (1 - REL_TOL):
        problems.append(f"jct_s {result.jct_s!r} < sum of epoch times {busy!r}")
    return problems


def check_tuning(result) -> list[str]:
    """Invariants of a ``TuningRunResult``; SHA stages stand in for epochs."""
    stages = result.stages
    if not stages:
        return ["no SHA stage was run"]
    values = [result.jct_s, result.cost_usd]
    for s in stages:
        values += [s.jct_s, s.cost_usd, s.sync_s]
    if not _finite(values):
        return ["a time or cost is not finite"]
    problems = _sum_check(result.cost_usd, [s.cost_usd for s in stages], "cost_usd")
    busy = math.fsum(s.jct_s for s in stages)
    if result.jct_s < busy * (1 - REL_TOL):
        problems.append(f"jct_s {result.jct_s!r} < sum of stage times {busy!r}")
    return problems


def check_recorded(store, journal_path: Path) -> list[str]:
    """The saved bundle reads back digest-verified; the journal committed.

    ``store`` is the job's ``repro.runs.RunStore``; ``read_artifact``
    re-hashes every artifact against the digest in its manifest.
    """
    problems = []
    run_ids = store.run_ids()
    if len(run_ids) != 1:
        problems.append(f"store holds {len(run_ids)} runs, expected 1")
    for run_id in run_ids:
        try:
            manifest = store.load(run_id)
            for entry in manifest["artifacts"]:
                store.read_artifact(manifest, entry["kind"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"bundle {run_id} does not read back: {exc}")
    try:
        lines = journal_path.read_text(encoding="utf-8").splitlines()
        last = json.loads(lines[-1]) if lines else {}
    except (OSError, ValueError) as exc:
        return problems + [f"journal unreadable: {exc}"]
    if last.get("kind") != "commit":
        problems.append("journal does not end in a commit record")
    return problems


def constraint_met(job, jct_s: float, cost_usd: float,
                   budget_usd: float | None, qos_s: float | None) -> bool:
    """Whether the job kept its constraint, with fig12's 5% slack."""
    if job.objective == "jct":
        return cost_usd <= budget_usd * 1.05
    return jct_s <= qos_s * 1.05
