"""Outside-in layer tracing for adiagen.

`Tracer` wraps adiagen's public functions from outside: every module of the
package that bound a traced function gets the wrapper, traced methods are
patched on their class, and the four dense `numpy.linalg` routines are
counted.  Leaving the `with` block puts every original back.  No source file
of adiagen changes.

A span is one call of a traced function.  Spans are aggregated by name in
memory: call count, total time and self time (duration minus the time of the
spans it directly caused).  A traced name the program no longer defines is
skipped and listed in `Tracer.missing`; its metrics read 0.
"""
from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import WORKLOADS

# (module, attribute) -> span name.  "Class.method" attributes are patched on
# the class; plain functions are rebound in every adiagen module holding them.
SPANS = {
    ("qcore", "decompose_hermitian"): "qcore.decompose_hermitian",
    ("qcore", "matrix_exponential"): "qcore.matrix_exponential",
    ("qcore", "ground_state"): "qcore.ground_state",
    ("qcore", "spectral_gap"): "qcore.spectral_gap",
    ("qcore", "spectral_norm"): "qcore.spectral_norm",
    ("qcore", "random_sparse_hermitian"): "qcore.random_sparse_hermitian",
    ("qcore", "DenseHermitian.__post_init__"): "qcore.hermitian_check",
    ("sparseham", "decompose"): "sparseham.decompose",
    ("sparseham", "SparseHamiltonian.materialize"): "sparseham.materialize",
    ("sparseham", "BlockPiece.materialize"): "sparseham.materialize",
    ("sparseham", "trotter_step"): "sparseham.trotter_step",
    ("sparseham", "trotter_unitary"): "sparseham.trotter_unitary",
    ("sparseham", "piece_exponential"): "sparseham.piece_exponential",
    ("sparseham", "simulate_sparse"): "sparseham.simulate_sparse",
    ("adiabatic", "jagged_path"): "adiabatic.jagged_path",
    ("adiabatic", "linear_path"): "adiabatic.linear_path",
    ("adiabatic", "zeno_evolve"): "adiabatic.zeno_evolve",
    ("adiabatic", "check_adiabatic_condition"): "adiabatic.check_adiabatic_condition",
    ("adiabatic", "evolve_discretized"): "adiabatic.evolve_discretized",
    ("adiabatic", "circuit_states"): "adiabatic.circuit_states",
    ("markov", "stationary"): "markov.stationary",
    ("markov", "anneal_weights_sequence"): "markov.anneal_weights_sequence",
    ("markov", "check_slowly_varying"): "markov.check_slowly_varying",
    ("markov", "matchings_seed_qsample"): "markov.matchings_seed_qsample",
    ("markov", "qsample_sequence"): "markov.qsample_sequence",
    ("szk", "sd_decider"): "szk.sd_decider",
    ("szk", "dlp_decider"): "szk.dlp_decider",
    ("szk", "qr_decider"): "szk.qr_decider",
    ("szk", "qr_nonresidue_max_overlap"): "szk.qr_nonresidue_max_overlap",
    ("szk", "is_residue"): "szk.referee",
    ("szk", "discrete_log"): "szk.referee",
    ("szk", "dlp_promise_holds"): "szk.referee",
    ("cli", "run"): "cli",  # one span per command: cli.<command>
}

DENSE_OPS = ("eigh", "eigvalsh", "svd", "norm")

# Commands the workloads run, one cli.<command>.wall_s metric each.
CLI_COMMANDS = tuple(command for _, commands in WORKLOADS.values() for command, _, _ in commands)


def _dense_cost(a) -> int:
    """m*n*min(m, n) summed over a stack of matrices: N^3 for square N x N."""
    shape = np.shape(a)
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    """Aggregated spans and counters; a context manager that installs itself."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # traced names the program no longer has
        self._stack: list[list] = []  # [span name, time of child spans]
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.moduli: set = set()  # distinct moduli given to qr_nonresidue_max_overlap

    # -- spans ---------------------------------------------------------------

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _after(self, name: str, args: tuple, kwargs: dict, result):
        """Counters measured at the span boundary; may replace the result."""
        if name == "sparseham.piece_exponential":
            state = kwargs.get("state", args[-1] if args else None)
            self.counts["sparseham.bytes_copied_est"] += np.asarray(state).nbytes
        elif name == "sparseham.decompose":
            self.counts["sparseham.pieces"] += len(result)
        elif name == "sparseham.trotter_unitary" and self._inside("sparseham.simulate_sparse"):
            self.counts["sparseham.simulate_sparse.attempts"] += 1
        elif name == "szk.qr_nonresidue_max_overlap":
            self.moduli.add(args[0])
        elif name in ("adiabatic.jagged_path", "adiabatic.linear_path") and "evaluate" in {
                f.name for f in dataclasses.fields(result)}:
            evaluate = self._wrap("adiabatic.path_evaluate", result.evaluate)
            result = dataclasses.replace(result, evaluate=evaluate)
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = f"cli.{args[0].get('command')}" if name == "cli" else name
            frame = [span, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                tracer.calls[span] += 1
                tracer.total_s[span] += duration
                tracer.self_s[span] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            return tracer._after(name, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _count_dense(self, op: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            a = args[0]
            if op == "norm":
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                if ord_ != 2 or np.ndim(a) != 2:
                    return fn(*args, **kwargs)
            tracer.counts["qcore.dense_ops.calls"] += 1
            tracer.counts["qcore.dense_ops.n3_sum"] += _dense_cost(a)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"adiagen.{m}")
                   for m in ("qcore", "sparseham", "adiabatic", "markov", "szk", "cli")]
        self.missing = []
        try:
            for (module, attr), name in SPANS.items():
                home = importlib.import_module(f"adiagen.{module}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    if method not in vars(cls or object):
                        self.missing.append(f"{module}.{attr}")
                        continue
                    self._patch(cls, method, self._wrap(name, vars(cls)[method]))
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, bound, wrapper)
            for op in DENSE_OPS:
                self._patch(np.linalg, op, self._count_dense(op, getattr(np.linalg, op)))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- metrics -------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        m: dict[str, float] = {}
        for name in ("qcore.decompose_hermitian", "qcore.matrix_exponential",
                     "qcore.ground_state", "qcore.spectral_gap", "qcore.spectral_norm",
                     "qcore.hermitian_check", "sparseham.decompose",
                     "sparseham.piece_exponential", "adiabatic.path_evaluate",
                     "adiabatic.zeno_evolve", "adiabatic.check_adiabatic_condition",
                     "markov.stationary", "szk.sd_decider", "szk.dlp_decider",
                     "szk.qr_decider"):
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_s[name]
        for name in ("qcore.random_sparse_hermitian", "sparseham.materialize",
                     "sparseham.simulate_sparse", "adiabatic.evolve_discretized",
                     "adiabatic.circuit_states", "markov.anneal_weights_sequence",
                     "markov.check_slowly_varying", "markov.matchings_seed_qsample",
                     "markov.qsample_sequence", "szk.referee"):
            m[f"{name}.self_s"] = self.self_s[name]
        for name in ("qcore.dense_ops.calls", "qcore.dense_ops.n3_sum", "sparseham.pieces",
                     "sparseham.bytes_copied_est", "sparseham.simulate_sparse.attempts"):
            m[name] = self.counts[name]
        m["sparseham.trotter_step.calls"] = self.calls["sparseham.trotter_step"]
        attempts = self.counts["sparseham.simulate_sparse.attempts"]
        m["sparseham.simulate_sparse.useful_ratio"] = (
            self.calls["sparseham.simulate_sparse"] / attempts if attempts else 0.0)
        overlap_calls = self.calls["szk.qr_nonresidue_max_overlap"]
        m["szk.qr_nonresidue_max_overlap.calls"] = overlap_calls
        m["szk.qr_overlap.useful_ratio"] = (
            len(self.moduli) / overlap_calls if overlap_calls else 0.0)
        for command in CLI_COMMANDS:
            m[f"cli.{command}.wall_s"] = self.total_s[f"cli.{command}"]
        m["cli.self_s"] = sum(self.self_s[f"cli.{c}"] for c in CLI_COMMANDS)
        return m


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("useful_ratio"):
        return "ratio"
    if metric.endswith("bytes_copied_est"):
        return "B"
    return "count"
