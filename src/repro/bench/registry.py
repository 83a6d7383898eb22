"""The experiment registry: each experiment is declared exactly once.

Every module of :mod:`repro.bench.experiments` declares one
:class:`Experiment` as ``EXPERIMENT``: its id, the paper claim it
reproduces, the shape the paper predicts, the arguments it is published
at (``full``) and smoke-tested at (``quick``), its run function and its
shape check. Everything else is a view of the registry: the
``python -m repro experiments`` runner, the CI smoke list, and
EXPERIMENTS.md — its index and its verdict column, which is the outcome
of running each check on the table printed under it.
"""

from __future__ import annotations

import functools
import importlib
import os
import pathlib
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.reporting import ExperimentReport

#: Set (to anything non-empty) to run every entry at its quick size.
QUICK_ENV = "SKYQUERY_BENCH_QUICK"

#: The one published report, at the repository root.
PUBLISHED = pathlib.Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every figure and quantitative claim in *SkyQuery: A Web Service Approach to
Federate Databases* (CIDR 2003), regenerated by this reproduction. The paper
publishes **no absolute performance numbers** — it is a systems/architecture
paper whose evaluation consists of three figures plus prose claims — so the
comparison below is about *shape*: does the reproduced system exhibit the
behaviour the paper reports, with the winners, losers and trade-offs falling
the same way?

The substrate differences (synthetic sky instead of the real SDSS/2MASS/FIRST
archives; a simulated network instead of the 2002 Internet; an in-process
relational engine instead of SQL Server) are inventoried in DESIGN.md §3.
This file is generated by `python -m repro experiments --out EXPERIMENTS.md`
from the registry in `repro.bench.experiments` (one module per experiment).
*Holds?* is the outcome of the experiment's shape check, run on the table
printed below at the size printed there.

## Shape expectations (from the paper) and verdicts

| Exp | Paper's claim | Expected shape | Holds? |
|-----|---------------|----------------|--------|
"""


@dataclass(frozen=True)
class Experiment:
    """One experiment: what it reproduces, how to run it, how to judge it."""

    exp_id: str
    claim: str
    shape: str
    run: Callable[..., ExperimentReport]
    #: Raises ``AssertionError`` when the report does not have the shape;
    #: the flag says whether the report was run at its quick size.
    check: Callable[[ExperimentReport, bool], None]
    #: ``run``'s arguments at the published size.
    full: Mapping[str, Any] = field(default_factory=dict)
    #: Overrides of ``full`` for the quick (CI smoke) run; ``None`` keeps
    #: the entry out of the smoke run, and quick mode runs it at full size.
    quick: Optional[Mapping[str, Any]] = None

    def arguments(self, quick: bool) -> Dict[str, Any]:
        """``run``'s keyword arguments at the quick or the full size."""
        if quick and self.quick is not None:
            return {**self.full, **self.quick}
        return dict(self.full)

    def verdict(self, report: ExperimentReport, quick: bool) -> str:
        """``"yes"``, or ``"NO: <why>"`` when the check fails."""
        try:
            self.check(report, quick)
        except AssertionError as failure:
            reason = " ".join(str(failure).split()) or "shape check failed"
            return "NO: " + reason.replace("|", "/")
        return "yes"


@functools.lru_cache(maxsize=1)
def experiments() -> Tuple[Experiment, ...]:
    """Every registered experiment, in module-name order."""
    from repro.bench import experiments as package

    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
    return tuple(
        importlib.import_module(f"{package.__name__}.{name}").EXPERIMENT
        for name in names
    )


def select(ids: Sequence[str]) -> Tuple[List[Experiment], List[str]]:
    """The entries whose registry id is in ``ids`` (any case; all when
    ``ids`` is empty), in registry order, and the ids nothing matched."""
    wanted = {token.strip().upper() for token in ids if token.strip()}
    chosen = [e for e in experiments() if not wanted or e.exp_id.upper() in wanted]
    known = {e.exp_id.upper() for e in experiments()}
    return chosen, sorted(wanted - known)


def quick_ids() -> List[str]:
    """The ids of the entries with a quick size: the CI smoke list."""
    return [e.exp_id for e in experiments() if e.quick is not None]


def quick_mode() -> bool:
    """Whether this process runs experiments at their quick sizes."""
    return bool(os.environ.get(QUICK_ENV))


def render(outcomes: Sequence[Tuple[Experiment, ExperimentReport, str]]) -> str:
    """EXPERIMENTS.md for ``(entry, report, verdict)`` triples."""
    index = [
        f"| {entry.exp_id} | {entry.claim} | {entry.shape} | {verdict} |"
        for entry, _, verdict in outcomes
    ]
    tables = [report.to_markdown() for _, report, _ in outcomes]
    return "\n".join([HEADER + "\n".join(index), "", "## Measured tables", "", *tables])


def _table(lines: List[str], start: int) -> List[List[str]]:
    """The body cells of the first markdown table at or after ``start``."""
    rows: List[List[str]] = []
    for line in lines[start:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # drop the header and the separator


def published_index() -> Dict[str, Tuple[str, str, str]]:
    """``{exp_id: (claim, shape, verdict)}`` of the published index."""
    lines = PUBLISHED.read_text(encoding="utf-8").splitlines()
    start = lines.index("## Shape expectations (from the paper) and verdicts")
    return {row[0]: (row[1], row[2], row[3]) for row in _table(lines, start)}


def published_rows(exp_id: str) -> List[List[str]]:
    """The cells of ``exp_id``'s measured table as published."""
    lines = PUBLISHED.read_text(encoding="utf-8").splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.startswith(f"### {exp_id} — ")
    )
    return _table(lines, start)
