"""The experiment harness behind EXPERIMENTS.md.

Each module of :mod:`repro.bench.experiments` reproduces one figure or
quantitative claim of the paper (see DESIGN.md's experiment table) and
declares it once, as an entry of :mod:`repro.bench.registry`; its run
function returns an :class:`~repro.bench.reporting.ExperimentReport`
whose rows are what ``python -m repro experiments`` prints and
EXPERIMENTS.md records.
"""
