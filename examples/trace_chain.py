#!/usr/bin/env python3
"""Distributed tracing of a federated cross-match, end to end.

Runs the same query twice — once over the classic store-and-forward chain
and once pipelined — and prints each run's span tree as an ASCII
flamegraph on the simulated clock. The two shapes tell the whole story:
store-and-forward nests each hop's `PerformXMatch` inside its caller's
(the chain is strictly serial, and the response carries the one batch),
while the pipelined run uses that cascade only to open the streams and
its `PullBatch` spans overlap across hops (batch k+1 transfers while
batch k computes).

Also writes a Chrome trace_event JSON for the pipelined run: load
`trace_chain_pipelined.json` in about:tracing or https://ui.perfetto.dev
to scrub through the same spans interactively.

Run:  python examples/trace_chain.py
"""

import json
import os
import tempfile

from repro import (
    FederationConfig,
    SkyField,
    build_federation,
    render_flamegraph,
    to_chrome_trace,
)
from repro.tracing import chain_hop_spans, check_span_invariants

SQL = """
    SELECT O.object_id, O.ra, T.obj_id
    FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T,
         FIRST:Primary_Object P
    WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5
"""


def run_mode(chain_mode):
    federation = build_federation(
        FederationConfig(
            n_bodies=1200,
            seed=42,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            default_bandwidth_bps=250_000.0,
            chain_mode=chain_mode,
            stream_batch_size=100,
        )
    )
    result = federation.portal.submit(SQL)
    return federation, result


def main() -> None:
    for mode in ("store-forward", "pipelined"):
        federation, result = run_mode(mode)
        trace = result.trace
        check_span_invariants(trace)
        print(f"=== {mode} ===")
        print(render_flamegraph(trace, width=64))
        hops = chain_hop_spans(trace)
        print(f"rows: {len(result.rows)}   chain hops: "
              + " -> ".join(span.host.split('.')[0] for span in hops))
        print()
        if mode == "pipelined":
            out = os.path.join(
                tempfile.gettempdir(), "trace_chain_pipelined.json"
            )
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(to_chrome_trace(trace), handle, indent=2)
            print(f"wrote {out} (open in about:tracing / Perfetto)")


if __name__ == "__main__":
    main()
