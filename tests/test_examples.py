"""The example scripts must run clean and print what they promise."""

import functools
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@functools.cache
def run_example(name):
    """Run one script once per session; every test of it reads this run."""
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "radio_quiet_galaxies.py",
        "multispectral_photometry.py",
        "federation_growth.py",
        "polygon_search.py",
        "archive_replication.py",
        "pipelined_chain.py",
        "trace_chain.py",
        "live_ingest.py",
    ],
)
def test_example_runs(script):
    proc = run_example(script)
    assert proc.returncode == 0, proc.stderr


def test_quickstart_output():
    out = run_example("quickstart.py").stdout
    assert "Registered archives: ['FIRST', 'SDSS', 'TWOMASS']" in out
    assert "Cross matches found:" in out
    assert "crossmatch-chain" in out


def test_radio_quiet_partition_holds():
    out = run_example("radio_quiet_galaxies.py").stdout
    assert "loud + quiet == all optical? True | disjoint? True" in out


def test_multispectral_precision_table():
    out = run_example("multispectral_photometry.py").stdout
    assert "precision" in out
    assert "3.5" in out


def test_federation_growth_registers_third_node():
    out = run_example("federation_growth.py").stdout
    assert "federation size is now 3" in out
    assert "Register" in out and "GetSchema" in out and "GetInfo" in out
    assert "3-archive cross match after joining:" in out


def test_polygon_search_output():
    out = run_example("polygon_search.py").stdout
    assert "Triangular AREA(POLYGON, ...)" in out
    assert "<VOTABLE" in out


def test_pipelined_chain_identical_and_faster():
    out = run_example("pipelined_chain.py").stdout
    # The example asserts row identity itself; the test pins the printed
    # proof and that the slow-link scenario actually shows a speedup.
    assert "Rows identical across modes? True" in out
    speedup = float(out.split("Pipelined speedup: ")[1].split("x")[0])
    assert speedup > 1.0
    assert "role=seed" in out and "batches=" in out


def test_live_ingest_snapshot_and_atomicity():
    out = run_example("live_ingest.py").stdout
    assert "as epoch 1" in out
    assert "(lockstep)" in out
    assert "byte-identical to the before answer: True" in out
    assert "aborts cleanly: committed=False" in out


def test_archive_replication_atomicity_and_recovery():
    out = run_example("archive_replication.py").stdout
    assert "committed=True" in out
    assert "committed=False (reason: 'disk full')" in out
    assert "no partial copy" in out
    assert "Coordinator crashed" in out
    assert "After recovery both targets agree" in out
