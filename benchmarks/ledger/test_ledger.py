"""Smoke test of the ledger at 5 % operation counts (about three minutes).

Outside tier-1's ``testpaths``; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from repro import FederationConfig, build_federation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(tmp_path_factory, workload, seed, trace):
    """One run of run.py: (contract line, full record)."""
    out = tmp_path_factory.mktemp("ledger") / "record.json"
    full_ops = workloads.WORKLOADS[workload].full_ops
    ops = max(1, round(full_ops * 0.05)) * (4 if trace else 1)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--ops", str(ops), "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    workload = request.param
    return {
        "workload": workload,
        "first": _run(tmp_path_factory, workload, 1234, 0),
        "again": _run(tmp_path_factory, workload, 1234, 0),
        "other": _run(tmp_path_factory, workload, 4321, 0),
        "traced": _run(tmp_path_factory, workload, 1234, 1),
    }


def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert WORKLOADS == list(workloads.WORKLOADS)


def test_every_declared_metric_is_reported_and_vice_versa(runs):
    line, _ = runs["first"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    traced_line, _ = runs["traced"]
    assert set(traced_line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, entry in {**line["metrics"], **traced_line["metrics"]}.items():
        assert entry["unit"] == units[name], name


def test_nothing_fails_and_answers_match_the_oracle(runs):
    for key in ("first", "again", "other", "traced"):
        line, record = runs[key]
        assert line["correct"] and line["failed"] == 0, record["failures"]
        assert line["attempted"] >= 1
        assert record["oracle"]["checked"] >= 1
    assert all(entry["value"] > 0 for entry in runs["first"][0]["metrics"].values())


def test_same_seed_repeats_exactly_and_another_seed_does_not(runs):
    (_, first), (_, again), (_, other) = runs["first"], runs["again"], runs["other"]
    assert first["rows_digest"] == again["rows_digest"]
    assert first["rows_digest"] != other["rows_digest"]
    for name in compare.EXACT:
        table = "metrics" if name in first["metrics"] else "workload_metrics"
        assert first[table][name] == again[table][name], name


def test_span_file_self_times_add_up_to_the_traced_wall(runs):
    trace = json.loads(
        (HERE / "results" / f"trace_{runs['workload']}.json").read_text()
    )
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, layer, start, end, parent, query in spans:
        assert end >= start
        if parent >= 0:
            covered[parent] += end - start
    self_total = sum(s[3] - s[2] - inner for s, inner in zip(spans, covered))
    root_total = sum(s[3] - s[2] for s in spans if s[4] < 0)
    assert root_total > 0
    assert abs(self_total - root_total) <= 0.05 * root_total
    assert {s[1] for s in spans} >= {"client", "soap", "portal", "services"}


def test_oracle_catches_a_missing_and_an_invented_row():
    fed = build_federation(FederationConfig(n_bodies=400, seed=9))
    window = harness.Window(fed)
    spec = workloads.make_query(
        ("SDSS", "TWOMASS", "FIRST"), workloads.FIELD_RA, workloads.FIELD_DEC, 2400.0
    )
    window.query(fed.client(), spec)
    (record,) = window.records
    assert len(record.rows) > 10
    assert oracle.check(fed, [record], workloads.THRESHOLD)[:2] == (1, 0)
    kept = record.rows
    record.rows = kept[1:]
    assert oracle.check(fed, [record], workloads.THRESHOLD)[1] == 1
    record.rows = kept + [(kept[0][0],) + kept[1][1:]]
    assert oracle.check(fed, [record], workloads.THRESHOLD)[1] == 1


def test_committed_same_commit_records_compare_clean():
    a = json.loads((HERE / "results" / "aa_1.json").read_text())
    b = json.loads((HERE / "results" / "aa_2.json").read_text())
    rows = compare.compare(a, b)
    assert rows and not [row for row in rows if row[-1] == "regressed"]
    assert {row[1] for row in rows} >= {"bench.failed_share", "rows_digest"}


def test_compare_rejects_failures_and_different_rows():
    a = json.loads((HERE / "results" / "aa_1.json").read_text())
    b = copy.deepcopy(a)
    run = b["workloads"]["cone_search"]["untraced"]
    run["workload_metrics"]["bench.failed_share"]["value"] = 0.005
    run["rows_digest"] = "0" * 64
    run["metrics"]["query_wall_p50_ms"]["value"] *= 0.5  # wrong rows, faster
    verdicts = {row[:2]: row[-1] for row in compare.compare(a, b)}
    assert verdicts["cone_search", "query_wall_p50_ms"] == "improved"
    assert {pair for pair, verdict in verdicts.items() if verdict == "regressed"} == {
        ("cone_search", "bench.failed_share"),
        ("cone_search", "rows_digest"),
    }
