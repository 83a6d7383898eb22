"""The command-line interface."""

import subprocess
import sys

import pytest

from repro.bench.registry import experiments, published_index, select
from repro.cli import main


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "skyquery-repro" in out
    assert "CIDR 2003" in out


def test_demo(capsys):
    assert main(["demo", "--bodies", "300"]) == 0
    out = capsys.readouterr().out
    assert "Registered: ['FIRST', 'SDSS', 'TWOMASS']" in out
    assert "cross matches" in out


def test_query_table(capsys):
    code = main([
        "query",
        "SELECT O.object_id, T.obj_id FROM SDSS:Photo_Object O, "
        "TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T) < 3.5",
        "--bodies", "300", "--stats",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "O.object_id" in out
    assert "crossmatch-chain" in out


def test_query_votable(capsys):
    code = main([
        "query",
        "SELECT t.object_id FROM SDSS:Photo_Object t "
        "WHERE AREA(185.0, -0.5, 300.0) LIMIT 3",
        "--bodies", "300", "--format", "votable",
    ])
    assert code == 0
    assert "<VOTABLE" in capsys.readouterr().out


def test_query_csv(capsys):
    code = main([
        "query",
        "SELECT t.object_id, t.ra FROM SDSS:Photo_Object t "
        "WHERE AREA(185.0, -0.5, 300.0) LIMIT 2",
        "--bodies", "300", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t.object_id,t.ra"
    assert len(lines) == 3


def test_query_bad_sql_is_clean_error(capsys):
    code = main(["query", "NOT SQL AT ALL", "--bodies", "300"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_experiments_filter(capsys, tmp_path):
    out_file = tmp_path / "report.md"
    code = main(["experiments", "--ids", "E2", "--out", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "E2:" in out
    assert "E4:" not in out
    assert "XMATCH semantics" in out_file.read_text()


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "--ids", "E99"]) == 1
    assert "no experiments matched" in capsys.readouterr().err


def _selected(ids):
    entries, unknown = select(ids.split(","))
    assert unknown == []
    return [entry.exp_id for entry in entries]


def test_experiments_select_sharded_by_registry_id():
    assert _selected("E11-sharded") == ["E11-sharded"]
    assert _selected("e11-SHARDED") == ["E11-sharded"]


def test_experiments_select_e11_alone():
    assert _selected("E11") == ["E11"]


def test_experiment_ids_unique():
    ids = [entry.exp_id for entry in experiments()]
    assert len(ids) == len(set(ids)) == 23


def test_published_index_matches_registry():
    index = published_index()
    assert list(index) == [entry.exp_id for entry in experiments()]
    for entry in experiments():
        claim, shape, _ = index[entry.exp_id]
        assert (claim, shape) == (entry.claim, entry.shape), entry.exp_id


def test_module_invocation():
    proc = run_cli("info")
    assert proc.returncode == 0
    assert "skyquery-repro" in proc.stdout


def test_trace_default_query(capsys):
    assert main(["trace", "--bodies", "300", "--width", "48"]) == 0
    out = capsys.readouterr().out
    assert "trace " in out.splitlines()[0]
    assert "SubmitQuery" in out
    assert "PerformXMatch" in out


def test_trace_writes_chrome_json(capsys, tmp_path):
    import json

    chrome = tmp_path / "trace.json"
    code = main([
        "trace",
        "SELECT O.object_id, T.obj_id FROM SDSS:Photo_Object O, "
        "TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T) < 3.5",
        "--bodies", "300", "--chrome", str(chrome),
    ])
    assert code == 0
    document = json.loads(chrome.read_text())
    assert any(
        event.get("ph") == "X" for event in document["traceEvents"]
    )
    assert f"wrote {chrome}" in capsys.readouterr().out


def test_query_explain(capsys):
    code = main([
        "query",
        "SELECT O.object_id, T.obj_id FROM SDSS:Photo_Object O, "
        "TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T) < 3.5 "
        "AND O.i_flux - T.i_flux > 2",
        "--bodies", "300", "--explain",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "performance queries:" in out
    assert "plan list" in out
    assert "portal-side predicates" in out


def test_bad_enumerated_flags_rejected_with_choices(capsys):
    """argparse rejects unsupported mode values up front,
    naming the legal choices instead of failing deep inside a query."""
    for flag, bad in [
        ("--chain-mode", "broadcast"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--bodies", "300", flag, bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert bad in err


def test_serve_multi_client_driver(capsys):
    code = main([
        "serve", "--bodies", "300", "--queries", "6", "--clients", "3",
        "--tenants", "2", "--max-inflight", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "tenant-0" in out and "tenant-1" in out
    assert "latency p50=" in out and "p99=" in out
    assert "makespan=" in out
    assert "cache: {" in out
    assert "scheduled answers identical to serial: True" in out


def test_serve_cache_off_skips_cache_report(capsys):
    code = main([
        "serve", "--bodies", "300", "--queries", "4", "--cache", "off",
        "--serial", "off",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cache: {" not in out
    assert "serial uncached baseline" not in out


def test_serve_enumerated_flags_rejected_with_choices(capsys):
    for flag, bad in [("--cache", "maybe"), ("--serial", "later")]:
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", flag, bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert bad in err


def test_serve_rejects_nonpositive_counts(capsys):
    for flag in ("--clients", "--tenants", "--queries", "--pool"):
        assert main(["serve", "--bodies", "100", flag, "0"]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be >= 1" in err


def test_serve_hopeless_deadline_degrades_every_answer(capsys):
    code = main([
        "serve", "--bodies", "300", "--queries", "4", "--max-inflight", "4",
        "--deadline", "0.000001", "--serial", "off",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "per-query budget 1e-06s" in out
    # Wave 1 jobs dispatch (no service history yet) and expire at the
    # first budget-checked operation: degraded answers, not hangs.
    assert "deadline-degraded answers: 4" in out


def test_serve_interrupt_drains_and_exits_cleanly(capsys, monkeypatch):
    from repro.portal.scheduler import QueryScheduler

    real_enqueue = QueryScheduler.enqueue

    def run_then_interrupt(self, jobs):
        for job in jobs:
            real_enqueue(
                self, job["sql"], tenant=job.get("tenant", "default"),
                deadline_s=job.get("deadline_s"),
            )
        raise KeyboardInterrupt

    monkeypatch.setattr(QueryScheduler, "run", run_then_interrupt)
    code = main([
        "serve", "--bodies", "300", "--queries", "4", "--serial", "off",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "interrupted — drained scheduler:" in out
    assert "4 queued job(s) cancelled, 0 completed before shutdown" in out
    assert "shed=4" in out
    assert "backpressure: retry_after~" in out
