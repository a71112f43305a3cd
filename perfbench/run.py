"""adiagen end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With `--trace 0` it reports the end-to-end
metrics `wall_rel`, `setup_s` and `peak_rss_mb`; with `--trace 1` the per-layer
metrics of a traced run.  Every command's output is checked; the last line of
stdout is one JSON object, and the exit code is 0 only if every check passed.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

import workloads  # noqa: E402


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import adiagen and build the inputs.

    The wait blocks (a timeout would make subprocess poll in 50 ms steps);
    a watchdog timer kills a probe that hangs.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.Popen([sys.executable, str(WORKER), "--setup", "--workload",
                                  workload, "--seed", str(seed)], cwd=ROOT)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, probe.args)
    return samples


def _run_worker(args) -> str:
    """The worker's stdout.  It runs in a session of its own, with the
    baseline process it starts, so a timeout kills both."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as worker:
        try:
            stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            raise
    if worker.returncode != 0:
        raise subprocess.CalledProcessError(worker.returncode, cmd)
    return stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adiagen end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adiagen" / "__init__.py").is_file():
        print(f"benchmark: no adiagen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
        stdout = _run_worker(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    data = json.loads(stdout.strip().splitlines()[-1])

    env = dict(data["env"], git_commit=_git_commit())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, "
          "1 client" + ("" if args.trace else ", program and baseline interleaved"))
    print("env " + json.dumps(env, sort_keys=True))
    walls = data["walls"]
    q1, med, q3 = _quartiles(walls)
    print(f"wall_s       median {med:.4f}  p25 {q1:.4f}  p75 {q3:.4f}  n={len(walls)} passes")
    print(f"failed_frac  {data['failed']}/{data['attempted']} commands")
    for problem in data["problems"]:
        print(f"FAILED {problem}")

    if args.trace:
        from tracing import unit_of

        if data["missing_spans"]:
            print("not traced, absent from the program (reported as 0): "
                  + ", ".join(data["missing_spans"]))
        metrics = {}
        for name, value in sorted(data["layers"].items()):
            unit = unit_of(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:48s} {value:.6g} {unit}")
    else:
        base = data["baseline_walls"]
        b1, b_med, b3 = _quartiles(base)
        print(f"baseline_s   median {b_med:.4f}  p25 {b1:.4f}  p75 {b3:.4f}  n={len(base)} passes"
              "  (frozen adiagen in perfbench/baseline, interleaved)")
        wall_rel = sum(walls) / sum(base)
        ratios = " ".join(f"{w / b:.4f}" for w, b in zip(walls, base))
        print(f"wall_rel     {wall_rel:.4f}  (sum over passes; per pass, program first "
              f"then baseline first: {ratios})")
        s1, s_med, s3 = _quartiles(setup)
        print(f"setup_s      median {s_med:.4f}  p25 {s1:.4f}  p75 {s3:.4f}  n={len(setup)} processes")
        print(f"peak_rss_mb  {data['peak_rss_mb']:.1f}")
        metrics = {
            "wall_rel": {"value": wall_rel, "unit": "ratio"},
            "setup_s": {"value": s_med, "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MiB"},
        }
    correct = data["failed"] == 0 and not data["problems"]
    print(json.dumps({"correct": correct, "attempted": data["attempted"],
                      "failed": data["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
