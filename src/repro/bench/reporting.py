"""Experiment report objects, their text/markdown rendering, and the
best-of-N wall timer the wall-clock columns share."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple

from repro.client.formatting import format_table


@dataclass
class ExperimentReport:
    """One experiment's regenerated table."""

    exp_id: str
    title: str
    source: str  # which figure/claim of the paper this reproduces
    headers: List[str]
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one result row."""
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        """Append a free-form observation."""
        self.notes.append(text)

    def to_text(self) -> str:
        """Human-readable rendering for benchmark output."""
        lines = [f"== {self.exp_id}: {self.title} ==", f"   (paper: {self.source})"]
        lines.append(format_table(self.headers, self.rows))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Markdown rendering for EXPERIMENTS.md."""
        lines = [f"### {self.exp_id} — {self.title}", "", f"*Paper source:* {self.source}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_md_cell(v) for v in row) + " |")
        if self.notes:
            lines.append("")
            lines.extend(f"- {note}" for note in self.notes)
        lines.append("")
        return "\n".join(lines)


def _md_cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def best_of(fn: Callable[[], Any], repeats: int) -> Tuple[Any, float]:
    """``fn()``'s value and its best wall seconds over ``repeats`` calls."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return value, best
