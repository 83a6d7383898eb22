"""The install story: everything works without scipy.

The original default matcher imported scipy unconditionally, so a bare
``pip install`` produced a package whose quickstart crashed. These tests
block scipy (``sys.modules["scipy"] = None`` makes any import raise
ImportError) and run the full federation quickstart end-to-end to pin the
fix: every matcher needs only numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

BLOCK_SCIPY = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "sys.modules['scipy.spatial'] = None\n"
)


def run_blocked(script_body):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY + script_body],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=600,
    )


def test_quickstart_runs_without_scipy():
    proc = run_blocked(
        "import runpy\n"
        f"runpy.run_path({str(REPO_ROOT / 'examples' / 'quickstart.py')!r}, "
        "run_name='__main__')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "Cross matches found" in proc.stdout


def test_chain_and_pull_baseline_run_without_scipy():
    proc = run_blocked(
        "from repro.baselines.pull_mediator import PullMediator\n"
        "from repro.federation.builder import FederationConfig, "
        "build_federation\n"
        "fed = build_federation(FederationConfig(n_bodies=200, seed=5))\n"
        "sql = (\"SELECT O.object_id FROM SDSS:Photo_Object O, \"\n"
        "       \"TWOMASS:Photo_Primary T \"\n"
        "       \"WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T) < 3.5\")\n"
        "chain = fed.client().submit(sql)\n"
        "pulled = PullMediator(fed.portal).execute(sql)\n"
        "assert sorted(r[0] for r in chain.rows) == "
        "sorted(r[0] for r in pulled.rows)\n"
        "assert len(chain) > 0\n"
        "print('rows', len(chain))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rows ")


def test_importing_xmatch_package_needs_no_scipy():
    proc = run_blocked(
        "import repro.xmatch\n"
        "from repro.xmatch import batch_match_step, ColumnarObjects\n"
        "print('ok')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
