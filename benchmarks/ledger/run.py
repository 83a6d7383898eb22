"""The ledger: a dual-clock, five-workload, layer-attributed benchmark.

One workload, as the driver runs it::

    python3 benchmarks/ledger/run.py --workload cone_search --seed 7 \\
        --seconds 8 --trace 0

prints every metric by name with its unit, checks answers against the
oracle, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` measures the end-to-end metrics with the span
wrappers absent; ``--trace 1`` measures the per-layer metrics (an untraced
baseline window, the same operations again under the wrappers, then the
layer probes). ``--ops N`` replaces the time box by a fixed operation count,
so every sim-clock, byte and row count repeats exactly.

Without ``--workload`` it runs all five at their fixed operation counts
(``Workload.full_ops``), each in a fresh subprocess with ``PYTHONHASHSEED=0``
(so ``peak_rss_mb`` is per workload and one set-up cannot warm another), the
layer probes once, and writes one JSON record (``--out``) that ``compare.py``
reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from repro import build_federation  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
from workloads import THRESHOLD, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = HERE / "results"
#: Share of ``--seconds`` a traced run spends in its untraced baseline
#: window; the traced window then repeats the same operations.
TRACE_BASELINE_SHARE = 0.4


def commit_hash() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); the driver's
    checkout is not a repository, so ``unknown`` is a normal answer."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit_hash(),
    }


def _finish(fed, window) -> dict:
    """What both kinds of run do after the window: sentinel, oracle, digest."""
    before, after = window.sentinel_before, harness.sentinel()
    drift = after / before - 1.0
    checked, mismatched, notes = oracle.check(fed, window.records, THRESHOLD)
    window.attempted += checked
    window.failed += mismatched
    window.failures.extend(notes)
    return {
        "noise_drift": drift,
        "noisy": abs(drift) > 0.10,
        "sentinel_s": min(before, after),
        "rows_digest": harness.rows_digest(window),
        "oracle": {"checked": checked, "mismatched": mismatched},
    }


def run_untraced(workload, config, seed, seconds, ops):
    """End-to-end numbers: three set-ups, one window, no wrappers anywhere."""
    fed, setup_s = harness.timed_setup(lambda: build_federation(config))
    window = harness.run_window(workload, fed, seed, seconds=seconds, ops=ops)
    metrics = harness.end_to_end(window, setup_s)  # peak RSS before the oracle's
    run = _finish(fed, window)
    run["metrics"] = metrics
    run["workload_metrics"] = {
        **harness.workload_metrics(window),  # after it: mismatches are failures
        **harness.boundary_counts(window),
    }
    return window, run


def run_traced(workload, config, seed, seconds, ops, with_probes):
    """Per-layer numbers: the same operations untraced, then under spans."""
    import probes
    import trace

    fed = build_federation(config)
    baseline = harness.run_window(
        workload, fed, seed,
        seconds=seconds * TRACE_BASELINE_SHARE, ops=max(1, ops // 4) if ops else 0,
    )
    del fed
    gc.collect()

    recorder = trace.Recorder()
    recorder.install()
    try:
        fed = build_federation(config)
        window = harness.run_window(
            workload, fed, seed, seconds=0.0, ops=baseline.ops, tracer=recorder
        )
    finally:
        recorder.uninstall()
    run = _finish(fed, window)

    metrics = recorder.layer_metrics(window.queries)
    metrics.update(harness.boundary_counts(window))
    metrics.update(harness.workload_metrics(window))
    metrics["bench.trace_overhead_ratio"] = (
        harness.median(window.query_wall) / harness.median(baseline.query_wall),
        "ratio",
    )
    metrics["bench.noise_drift"] = (run["noise_drift"], "ratio")
    RESULTS.mkdir(exist_ok=True)
    recorder.write(RESULTS / f"trace_{workload.name}.json", workload=workload.name, seed=seed)
    run.update(
        metrics=metrics,
        probes=probes.run_probes(seed) if with_probes else {},
        top_layers=recorder.top_layers(),
    )
    return window, run


def run_one(name, seed, seconds, ops, traced, out, with_probes=True) -> int:
    """``with_probes`` is False only under the full pass, which runs the
    probes once itself; the driver's ``--trace 1`` always reports them."""
    workload = WORKLOADS[name]()
    config = workload.config(seed)
    if traced:
        window, run = run_traced(workload, config, seed, seconds, ops, with_probes)
    else:
        window, run = run_untraced(workload, config, seed, seconds, ops)
    metrics = dict(run["metrics"])
    metrics.update(run.get("probes", {}))

    declared = [
        m["name"]
        for m in SPEC["per_layer" if traced else "end_to_end"]
        if with_probes or m["name"] in metrics
    ]
    produced = set(metrics) | set(run.get("workload_metrics", {}))
    known = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    if set(declared) - set(metrics) or produced - known:
        raise SystemExit(
            f"BENCHMARK.json and this run disagree: lacks "
            f"{sorted(set(declared) - set(metrics))}, undeclared {sorted(produced - known)}"
        )

    print(f"# ledger {name} seed={seed} trace={int(traced)} ops={window.ops} "
          f"queries={window.queries} commits={window.commits}")
    for metric, (value, unit) in {**metrics, **run.get("workload_metrics", {})}.items():
        print(f"{metric:44s} {value:16.6f} {unit}")
    print(f"{'rows_digest':44s} {run['rows_digest']}")
    print(f"{'oracle':44s} {run['oracle']['checked']} checked, "
          f"{run['oracle']['mismatched']} mismatched")
    print(f"{'noise_drift':44s} {run['noise_drift']:16.6f} ratio"
          f"{'  NOISY' if run['noisy'] else ''}")
    for layer, share in run.get("top_layers", []):
        print(f"{'top_layer':44s} {layer} {share:.3f}")
    for note in window.failures:
        print(f"FAILED: {note}")

    def plain(table):
        return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}

    if out:
        record = {
            "workload": name,
            "seed": seed,
            "traced": traced,
            "ops": window.ops,
            "queries": window.queries,
            "commits": window.commits,
            "attempted": window.attempted,
            "failed": window.failed,
            "failures": window.failures,
            "environment": environment(),
            "config": dataclasses.asdict(config),
            **{k: v for k, v in run.items() if k not in ("metrics", "probes", "workload_metrics")},
            "metrics": plain(run["metrics"]),
            "workload_metrics": plain(run.get("workload_metrics", {})),
            "layer_probes": plain(run.get("probes", {})),
        }
        pathlib.Path(out).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(json.dumps({
        "correct": run["oracle"]["mismatched"] == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": plain({n: metrics[n] for n in declared}),
    }))
    return 0


def run_all(seed: int, traced: bool, out) -> int:
    """Every workload in its own subprocess; one merged record."""
    record = {"seed": seed, "environment": environment(), "workloads": {},
              "layer_probes": {}}
    env = dict(os.environ, PYTHONHASHSEED="0")
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="parts-") as scratch:
        for name, cls in WORKLOADS.items():
            for trace_flag in (0, 1) if traced else (0,):
                part = pathlib.Path(scratch) / f"{name}_{trace_flag}.json"
                done = subprocess.run(
                    [
                        sys.executable, str(HERE / "run.py"), "--workload", name,
                        "--seed", str(seed), "--ops", str(cls.full_ops),
                        "--trace", str(trace_flag), "--no-probes", "--out", str(part),
                    ],
                    env=env, check=False,
                )
                if done.returncode != 0:
                    return done.returncode
                piece = json.loads(part.read_text(encoding="utf-8"))
                del piece["layer_probes"]  # empty: the pass runs them below
                slot = record["workloads"].setdefault(name, {})
                slot["traced" if trace_flag else "untraced"] = piece
    if traced:
        import probes

        record["layer_probes"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in probes.run_probes(seed).items()
        }
        for name, entry in record["layer_probes"].items():
            print(f"{name:44s} {entry['value']:16.6f} {entry['unit']}")
    failed = sum(
        run["failed"] for slot in record["workloads"].values() for run in slot.values()
    )
    record["failed"] = failed
    target = pathlib.Path(out) if out else RESULTS / "latest.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"# wrote {target}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="one workload: length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="one workload: fixed operation count instead of --seconds")
    parser.add_argument("--no-probes", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="write the full JSON record here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, args.ops,
                       bool(args.trace), args.out, not args.no_probes)
    return run_all(args.seed, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
