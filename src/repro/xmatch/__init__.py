"""The probabilistic cross-match algorithm (paper Section 5.4).

The XMATCH clause is a probabilistic spatial join: an N-tuple of objects,
one per mandatory archive, matches when the chi-squared distance of the
observations from their best-fit common position is within the threshold.
The computation is *incremental* — each archive extends (i-1)-tuples with
its own candidate objects using only four cumulative values
``(a, ax, ay, az)`` — and *symmetric*: any archive order yields the same
final match set, which is what lets the Portal pick the order purely for
network-cost reasons.
"""

from repro.xmatch.chi2 import Accumulator
from repro.xmatch.tuples import LocalObject, PartialTuple
from repro.xmatch.kernel import (
    ColumnarObjects,
    batch_dropout_step,
    batch_match_step,
)
from repro.xmatch.stream import (
    CandidateSearch,
    ENGINES,
    dropout_step,
    in_memory_search,
    match_step,
    run_chain,
    seed_tuples,
)

__all__ = [
    "Accumulator",
    "LocalObject",
    "PartialTuple",
    "CandidateSearch",
    "ColumnarObjects",
    "ENGINES",
    "batch_dropout_step",
    "batch_match_step",
    "dropout_step",
    "in_memory_search",
    "match_step",
    "run_chain",
    "seed_tuples",
]
