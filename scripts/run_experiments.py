#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every experiment at full scale.

Usage:  python scripts/run_experiments.py [output_path]
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.bench import ALL_EXPERIMENTS

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
Regenerate this file with `python scripts/run_experiments.py`; the same
tables print during `pytest benchmarks/ --benchmark-only`.

## Shape expectations (from the paper) and verdicts

| Exp | Paper's claim | Expected shape | Holds? |
|-----|---------------|----------------|--------|
| E1 | Fig. 1: registration = Register + Metadata + Information callbacks over SOAP | exact handshake sequence on the wire | yes |
| E2 | Fig. 2: XMATCH(O,T,P) selects body *a*; XMATCH(O,T,!P) selects body *b* | exact set selection | yes |
| E3 | Fig. 3: 7-step execution flow | steps occur in order with the paper's roles | yes |
| E4 | §5.3: count-star descending order "will often decrease the network transmission costs" | count_desc <= count_asc bytes at every radius | yes |
| E5 | §5.1: chaining partial results beats pulling everything to the Portal | chain < pull for unselective queries; pull can win tiny queries (RPC overhead) — a real crossover | yes |
| E6 | §6: parser OOM at ~10 MB; chunking works around it | monolithic faults above the ceiling, chunked succeeds; smaller chunks => more messages | yes |
| E7 | §6: SOAP slower/bulkier than binary middleware | row-XML bytes and (de)serialization time >> binary; the columnar XML the chain ships sits between the two | yes |
| E8 | §5.1/§5.4: HTM reduces spatial processing | indexed scan touches a tiny fraction of rows; deeper mesh => tighter | yes |
| E9 | §5.3: performance queries warm the cache | physical reads drop after the count-star pass | yes |
| E10 | §5.4: XMATCH is fully symmetric | identical results under all orderings; accuracy high at 3.5 sigma | yes |
| E11 | §2/§5.3: federation must scale in archives | linear messages per added hop; monotone tuple attrition | yes |
| E12 | §5.4 design choice: the candidate search radius (ablation) | adaptive radius = full recall with fewer candidate tests; a tight radius loses matches | yes |
| E13 | §5.3: performance queries sent "as asynchronous SOAP messages" (ablation) | async makespan = slowest archive, beating sequential over uneven links | yes |
| E14 | §5.3 black-box cost estimation ([Du92]/[Zhu96]) extension | calibrated count-x-bytes ordering ships fewer chain bytes than count-only when row widths differ | yes |
| E15 | §2: autonomous archives over the Internet — "some nodes may be down" (extension) | resilient federation survives seeded drops with identical rows; permanent partition degrades, never crashes | yes |
| E16 | §5.4 cross-match cost — vectorized kernel (extension) | vectorized matcher = identical matches, large speedup over scalar | yes |
| E17 | §5.1/§5.3 chain transmission costs — pipelined streaming (extension) | identical rows at every batch size; pipelining wins when payload dominates latency, loses on tiny latency-bound queries — a real crossover; its byte price falls as the batch grows | all but one arm: 8000 bodies in 800-tuple batches (three batches) fell from 1.12x to 0.93x when the store-forward baseline moved to colset payloads, and `bench_e17`'s unedited `speedup > 1` fails on that row |
| E18 | §2 autonomy + §5.3 chain — replica failover with checkpoint/resume (extension) | crashed-over chain returns byte-identical rows; resume re-transfers strictly fewer bytes than restart after a late crash, ~equal after an early one | yes |
| E19 | §6 future work — live ingest with snapshot epochs (extension) | epoch commits grow the answer in replica lockstep; pinned reads replay byte-identically at pre-growth latency; fan-out costs ~participants x staged bytes | yes |
| E20 | §5.4 cross-match at scale — the successor papers' zone algorithm (Nieto-Santisteban 2005; Dobos 2012) as an alternate engine (extension) | zone sorted-merge beats batched-HTM probes at 10^5+ bodies with byte-identical survivors/stats/wire bytes; loses below the ~10^3 crossover and dilutes behind SOAP in federated chains | yes |
| E21 | §3 portal-as-web-service: many concurrent clients, repeated queries, live archives — scheduler + semantic cache (extension) | scheduled makespan beats the serial portal; a warmed cache answers the zipf workload for zero wire bytes; every arm row-identical to the serial uncached oracle; an all-unique workload cannot hit; an ingest commit invalidates | yes |
| E22 | §5.3 long-running federated queries need budgets and cleanup — deadlines + cooperative cancellation (extension) | a deadline-dead query degrades to an empty, typed-warning answer; eager CancelQuery leaves zero custody and zero reclaim latency where TTL-only holds state for the whole TTL; follow-up answers stay oracle-identical; header tax and cancel storms are the losing regimes | yes |
| E11-sharded | §2 federation scale-out / §5.3 cost model — sharded SkyNodes running one partition chain per declination stripe (extension; Dobos 2012, Nieto-Santisteban 2005) | sharded makespan beats monolithic ~2.2x on compute-bound scans, on cluster and WAN links, with byte-equal rows; an AREA inside one stripe gains nothing; wire bytes higher in every arm (x1.55 at 2k bodies, x1.08 at 100k) | yes |

## Measured tables

"""


def main() -> None:
    output = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else
        pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    )
    sections = [HEADER]
    for runner in ALL_EXPERIMENTS:
        start = time.perf_counter()
        report = runner()
        elapsed = time.perf_counter() - start
        print(f"{report.exp_id}: {report.title} ({elapsed:.1f}s)")
        sections.append(report.to_markdown())
    output.write_text("\n".join(sections), encoding="utf-8")
    print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
