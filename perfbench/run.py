"""The hochhom benchmark: closed-loop CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hh-weyl --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn.  One client runs the
workload's ops in order, each in a fresh interpreter pass, and starts passes
until the next one would end after ``--seconds``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones, the tracing overhead and the layer micro-benchmarks.  See
README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 10
RUN_LIMIT_S = 170  # a run, set-up and checks included, must end within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMANDS = ("hh", "cohh", "verify", "oracle")


def unit_of(name: str) -> str:
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if "ratio" in name or "share" in name:
        return "ratio"
    return "count"


class Runner:
    """Runs worker processes for one workload and seed inside a private directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.jobs = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONHASHSEED"] = "0"

    def worker(self, job: dict) -> dict:
        self.jobs += 1
        job_path = self.workdir / f"job-{self.jobs}.json"
        result_path = self.workdir / f"result-{self.jobs}.json"
        job_path.write_text(json.dumps({"src": str(SRC), **job}))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.perf_counter()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr[-2000:]}")
        return json.loads(result_path.read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workloads.build(name, seed, workdir), seed, seconds, trace, Runner(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


def _measure(
    load: workloads.Workload, seed: int, seconds: int, trace: bool, runner: Runner
) -> dict:
    for path, doc in load.files.items():
        Path(path).write_text(json.dumps(doc))
    references = workloads.load_references()
    base = {
        "kind": "pass",
        "configs": load.configs,
        "ops": [list(op.argv) for op in load.ops],
        "defect_ops": [list(op.argv) for op in load.defect_ops],
    }
    setups = [
        runner.worker({**base, "ops": [], "defect_ops": [], "trace": False})
        for _ in range(0 if trace else SETUP_SAMPLES)
    ]

    plain, traced = [], []
    start = time.perf_counter()
    pass_s = []
    while True:
        tracing = trace and len(plain) > len(traced)
        began = time.perf_counter()
        (traced if tracing else plain).append(runner.worker({**base, "trace": tracing}))
        pass_s.append(time.perf_counter() - began)
        enough = traced or not trace
        if enough and time.perf_counter() - start + statistics.median(pass_s) > seconds:
            break

    attempted = failed = 0
    reasons = set()
    defects = defaultdict(int)
    for result in plain + traced:
        for op, got in zip(load.ops, result["ops"]):
            attempted += 1
            reason = workloads.check_op(op, got["code"], got["stdout"], references)
            if reason is not None:
                failed += 1
                reasons.add(f"{op.key}: {reason}")
        for got in result["defect_ops"]:
            defects[workloads.defect_status(got["code"], got["stdout"])] += 1
    for reason in sorted(reasons):
        print(f"FAILED {reason}", file=sys.stderr)
    for status, count in sorted(defects.items()):
        print(f"defect op {status}: {count}", file=sys.stderr)

    samples = plain + traced
    fastest_probe = min(
        min(p for r in samples for op in r["ops"] for p in op["probes"]),
        min(p for r in samples + setups for p in r["setup_probes"]),
    )

    def adjusted(seconds: float, probes: list[float]) -> float:
        """A time scaled to the host's speed at the run's fastest probe."""
        return seconds * fastest_probe / statistics.median(probes)

    def ops_s(results: list[dict], command: str | None = None) -> float:
        """Sum over the ops (of one subcommand) of each op's best adjusted time."""
        return sum(
            min(adjusted(r["ops"][i]["seconds"], r["ops"][i]["probes"]) for r in results)
            for i, op in enumerate(load.ops)
            if command in (None, op.command)
        )

    if not trace:
        metrics = {
            "setup_s": statistics.median(
                adjusted(r["setup_s"], r["setup_probes"]) for r in setups + plain
            ),
            "wall_s": ops_s(plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
    else:
        metrics = {f"cli.{command}_s": ops_s(plain, command) for command in COMMANDS}
        metrics["trace.untraced_wall_s"] = ops_s(plain)
        metrics["trace.traced_wall_s"] = ops_s(traced)
        metrics["trace.overhead_s"] = ops_s(traced) - ops_s(plain)
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        metrics["host.slowdown_ratio"] = statistics.median(
            p for r in samples for op in r["ops"] for p in op["probes"]
        ) / fastest_probe
        metrics["cli.known_defect_ops"] = defects["known-defect"] / len(plain + traced)
        free_path = runner.workdir / "free-micro.json"
        free_path.write_text(json.dumps(workloads.free_config(random.Random(seed))))
        metrics.update(runner.worker({"kind": "micro", "free_config": str(free_path)}))
    return {
        "correct": failed == 0 and defects["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)} for k, v in metrics.items()
        },
    }


def print_table(name: str, result: dict) -> None:
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"{name:>14} {key:<44} {metric['value']:>14.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hochhom" / "cli.py").is_file():
        print(f"no hochhom sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, results[name])
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items() for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
