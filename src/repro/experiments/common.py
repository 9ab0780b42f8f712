"""Shared experiment infrastructure.

Each experiment module exposes ``run_*`` functions that return an
:class:`ExperimentResult` — a structured table (plus optional plot-style
series) mirroring one table or figure of the paper.  Rendering is plain
text so benchmark logs read like the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.base import resolve_scale
from repro.utils.tables import render_table

__all__ = ["ExperimentResult", "seeds_for_scale", "SEED_BUDGETS"]

#: How many seed inputs experiments draw at each scale.  The paper uses
#: 2,000 seeds for Table 2; ``full`` keeps that order of magnitude within
#: synthetic test-set sizes, the smaller scales keep CI and benchmarks fast.
SEED_BUDGETS = {"smoke": 20, "small": 80, "full": 400}


def seeds_for_scale(scale, maximum=None):
    """Seed budget for a named scale, optionally capped."""
    resolve_scale(scale)
    budget = SEED_BUDGETS[scale]
    if maximum is not None:
        budget = min(budget, maximum)
    return budget


@dataclass
class ExperimentResult:
    """One reproduced table/figure: metadata + rows (+ optional series)."""

    experiment_id: str          # e.g. "table2", "figure9"
    title: str
    headers: list
    rows: list = field(default_factory=list)
    series: dict = field(default_factory=dict)   # name -> (xs, ys) for figures
    notes: list = field(default_factory=list)
    paper_reference: str = ""   # what the paper reported, for EXPERIMENTS.md

    def render(self):
        """Human-readable table plus notes."""
        parts = [render_table(self.headers, self.rows,
                              title=f"[{self.experiment_id}] {self.title}")]
        for name, (xs, ys) in self.series.items():
            points = ", ".join(f"({x}, {y:.3g})" for x, y in zip(xs, ys))
            parts.append(f"series {name}: {points}")
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)
