"""One workload in one fresh process: timed passes, checks, optional tracing.

Started by `run.py`; prints one JSON object on stdout.  With `--setup` it only
imports adiagen and builds the workload's inputs, which is what `setup_s`
times.  The program under test is imported from `src/` of the checkout.

An untraced run interleaves the program with the frozen copy of adiagen in
`baseline/`, which a child process started with `--baseline` runs one
command at a time on request.  The host's speed drifts by up to a quarter
over minutes; the two see the same drift, so their time ratio does not.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src"
BASELINE_SRC = HERE / "baseline"
# At least two passes of the program per run; traced, at least two traced
# passes, so their counts can be compared.
MIN_ROUNDS = {False: 1, True: 2}
# After a BLAS call, OpenBLAS keeps its threads spinning for about 0.13 s
# (2**28 cycles).  Interleaved, every command of the program or the baseline
# starts this long after the last one ended, so neither side starts against
# the other's spinning threads.  The pause is not timed.
HANDOFF_S = 0.2

import reference  # noqa: E402
import workloads  # noqa: E402


def import_adiagen(src: Path = PROGRAM_SRC):
    """Import adiagen from `src`, never from an installed copy."""
    sys.path.insert(0, str(src))
    import adiagen
    import adiagen.cli

    if Path(adiagen.__file__).resolve().parent != src / "adiagen":
        raise ImportError(f"adiagen imported from {adiagen.__file__}, not from {src}")
    return adiagen


def run_command(cli, cfg: dict) -> tuple[float, object, str | None]:
    """Run one command: (seconds, report or None, error or None)."""
    start = time.perf_counter()
    try:
        report, error = cli.run(cfg), None
    except Exception as exc:  # a failed command is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        report, error = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, report, error


class Baseline:
    """The frozen adiagen in `baseline/`, in a child process that runs the
    workload's commands one at a time, by index, and answers with the time."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        args = [sys.executable, str(Path(__file__).resolve()), "--baseline",
                "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        self.proc = subprocess.Popen(args, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def _reply(self) -> str:
        line = self.proc.stdout.readline().strip()
        if not line or line.startswith("error"):
            raise RuntimeError(f"baseline process: {line or 'exited'}")
        return line

    def wait_ready(self) -> None:
        self._reply()

    def run(self, index: int) -> float:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return float(self._reply())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_baseline(workload: str, seed: int, smoke: bool) -> int:
    """The `--baseline` child: warm up, say ready, then run commands by index
    from stdin until it closes, printing each command's seconds."""
    adiagen = import_adiagen(BASELINE_SRC)
    configs = workloads.build(workload, seed, smoke)
    for cfg in workloads.build(workload, seed, smoke=True):
        run_command(adiagen.cli, cfg)
    print("ready", flush=True)
    for line in sys.stdin:
        seconds, _, error = run_command(adiagen.cli, configs[int(line)])
        print(f"error {error}" if error else repr(seconds), flush=True)
    return 0


def run_pass(workload: str, configs: list[dict], cli, tracer=None,
             baseline: Baseline | None = None, baseline_first: bool = False) -> dict:
    """One closed-loop pass over the workload's commands, traced if a tracer
    is given.  `wall` sums the commands' times.  With a baseline, each
    command also runs there, right before or right after the program's run,
    and `baseline_wall` sums those times.  The checks run after the pass."""
    outcomes = []
    wall = baseline_wall = 0.0
    if tracer is not None:
        tracer.reset()
    with tracer if tracer is not None else contextlib.nullcontext():
        for index, cfg in enumerate(configs):
            if baseline is not None and baseline_first:
                time.sleep(HANDOFF_S)
                baseline_wall += baseline.run(index)
            if baseline is not None:
                time.sleep(HANDOFF_S)
            seconds, report, error = run_command(cli, cfg)
            if baseline is not None and not baseline_first:
                time.sleep(HANDOFF_S)
                baseline_wall += baseline.run(index)
            wall += seconds
            outcomes.append((cfg["command"], report, error))
    results = []
    for command, report, error in outcomes:
        if report is None:
            results.append({"command": command, "scalars": None, "problems": [error]})
            continue
        problems = reference.check(report.scalars, report.failing(),
                                   reference.REFERENCES[workload][command])
        results.append({"command": command, "scalars": dict(report.scalars),
                        "problems": problems})
    out = {"wall": wall, "results": results}
    if baseline is not None:
        out["baseline_wall"] = baseline_wall
    if tracer is not None:
        out["layers"] = tracer.pass_metrics()
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run the workload's passes for about `seconds`, checking every one.

    A reduced-size pass warms up (checked, not timed); it and every timed
    round count toward `seconds`, and a round starts only if at least half
    of it, judged by the last round, falls within them.  Untraced, a round is two passes that interleave the program with the
    baseline command by command, the program going first in one and the
    baseline in the other.  With `trace` there is no baseline, and a round
    is an untraced and a traced pass, so both see the same machine state.
    Every pass's scalars must equal the first timed pass's, and every count
    must repeat exactly from one traced pass to the next.
    """
    adiagen = import_adiagen()
    configs = workloads.build(workload, seed, smoke)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + seconds
    with Baseline(workload, seed, smoke) if not trace else contextlib.nullcontext() as baseline:
        # The baseline warms up alone: two processes running BLAS calls at
        # once on two cores slow each other many times over.
        if baseline is not None:
            baseline.wait_ready()
        warmup = run_pass(workload, workloads.build(workload, seed, smoke=True), adiagen.cli)
        untraced, traced = [], []
        rounds, last = 0, 0.0
        while rounds < MIN_ROUNDS[trace] or time.perf_counter() + last / 2 <= deadline:
            start = time.perf_counter()
            if baseline is not None:
                for baseline_first in (False, True):
                    untraced.append(run_pass(workload, configs, adiagen.cli, baseline=baseline,
                                             baseline_first=baseline_first))
            else:
                untraced.append(run_pass(workload, configs, adiagen.cli))
                traced.append(run_pass(workload, configs, adiagen.cli, tracer))
            rounds += 1
            last = time.perf_counter() - start

    problems = []
    first = untraced[0]["results"]
    for p in untraced[1:] + traced:
        for ref, res in zip(first, p["results"]):
            if res["scalars"] != ref["scalars"] and not res["problems"]:
                res["problems"].append(f"scalars differ between passes: "
                                       f"{res['scalars']} != {ref['scalars']}")
    everything = [res for p in [warmup] + untraced + traced for res in p["results"]]
    failed = [res for res in everything if res["problems"]]
    for res in failed[:20]:
        problems.append(f"{res['command']}: " + "; ".join(res["problems"]))

    walls = [p["wall"] for p in untraced]
    out = {
        "walls": walls,
        "attempted": len(everything),
        "failed": len(failed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if not trace:
        out["baseline_walls"] = [p["baseline_wall"] for p in untraced]
    if trace:
        from tracing import unit_of

        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            if unit_of(name) == "s":
                layers[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    problems.append(f"count {name} does not repeat across traced passes: {values}")
                layers[name] = values[0]
        traced_walls = [p["wall"] for p in traced]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        out["traced_walls"] = traced_walls
        out["layers"] = layers
        out["missing_spans"] = tracer.missing
    out["problems"] = problems
    return out


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true", help="only import and build inputs")
    parser.add_argument("--baseline", action="store_true",
                        help="serve the frozen adiagen in baseline/, one command per stdin line")
    parser.add_argument("--smoke", action="store_true", help="reduced-size commands")
    args = parser.parse_args(argv)
    if args.baseline:
        return serve_baseline(args.workload, args.seed, args.smoke)
    if args.setup:
        import_adiagen()
        workloads.build(args.workload, args.seed)
        return 0
    json.dump(measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke),
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
