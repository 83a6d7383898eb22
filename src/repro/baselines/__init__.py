"""Baselines the paper's design is measured against.

* :class:`~repro.baselines.pull_mediator.PullMediator` — "Many federations,
  based on the wrapper-mediator architecture, pull results from each
  database to the Portal" (Section 5.1). SkyQuery's chained shipping is
  benchmarked against exactly that.
* Alternative chain orderings live in
  :class:`repro.portal.planner.OrderingStrategy` (count-ascending, random,
  as-written) as baselines for the count-star ordering experiment.
* The brute-force spatial scan baseline is E8's full-scan arm: every
  stored position tested against the AREA (HTM experiment).
"""

from repro.baselines.pull_mediator import PullMediator

__all__ = ["PullMediator"]
