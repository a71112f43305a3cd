"""Adiabatic path machinery.

Paths through Hamiltonian space, the adiabatic-condition check, discretized
Schrodinger evolution, measurement-driven (Zeno) evolution, phase-estimation
projection, jagged projector paths, and the circuit-to-path compiler.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .qcore import (
    DEGENERACY_TOL,
    DegenerateGroundstateError,
    DenseHermitian,
    DimensionMismatchError,
    NumericalError,
    StateVector,
    UnitaryMatrix,
    _fix_phase,
    ground_state,
    hermitian_entries,
    hermitian_norm,
    matrix_exponential,
    state_overlap,
)


class _Frames(NamedTuple):
    """Per-segment data of a jagged path, taken once: segment j runs from a = a_j to b = a_{j+1}."""

    e: np.ndarray  # S x N: {a, e} is an orthonormal frame of span{a, b}; e = 0 where b is a phase times a
    ov: np.ndarray  # <a|b>, complex(np.vdot(a, b))
    ov_mag: np.ndarray  # |<a|b>|, each taken by Python's abs(complex), which np.abs can differ from in the last bit
    width: np.ndarray  # ||b - <a|b> a||
    b_e: np.ndarray  # <e|b>: b = <a|b> a + <e|b> e


def _runs(seg: np.ndarray) -> list[tuple[int, int, int]]:
    """(segment, start, stop) for each run of equal entries of `seg`."""
    cuts = (np.flatnonzero(np.diff(seg)) + 1).tolist()
    return [(int(seg[lo]), lo, hi) for lo, hi in zip([0, *cuts], [*cuts, len(seg)])]


@dataclass(frozen=True, eq=False)
class HamiltonianPath:
    """Jagged path through the projectors I - |a_j><a_j|, with a_j reached at s = j/(L-1).

    Segment j, H = (1-eta)(I-|a><a|) + eta(I-|b><b|) with a = a_j and b = a_{j+1},
    is the identity outside span{a, b}, up to the phase e^{-it}.  The path takes
    <a|b>, ||b - <a|b>a|| and an orthonormal frame {a, e} of span{a, b} once per
    segment (`_frames`, O(L N) in all).  Gaps, derivative norms and groundstate
    frame coordinates at any s are then O(1) closed forms.  `evolve_discretized`
    runs each segment's steps as 2x2 matvecs on the frame coordinates of the
    state and `zeno_evolve` overlaps groundstates as frame 2-vectors; an N-vector
    is formed only where a segment starts or ends, so they cost O(L N + steps)
    and O(L N + R).
    """

    states: np.ndarray  # L x N: the groundstates a_0 ... a_{L-1}

    @cached_property
    def _frames(self) -> _Frames:
        S = max(len(self.states) - 1, 1)  # a one-state path is one segment from a_0 to itself
        A, B = self.states[:S], self.states[-S:]
        ov = np.array([complex(np.vdot(a, b)) for a, b in zip(A, B)])
        R = B - ov[:, None] * A
        width = np.array([np.linalg.norm(r) for r in R])
        R -= np.sum(A.conj() * R, axis=1, keepdims=True) * A  # keeps e orthogonal to a when b is near a phase times a
        r_norm = np.linalg.norm(R, axis=1, keepdims=True)
        keep = r_norm > width[:, None] / 2  # else b - <a|b>a was rounding error along a, and e = 0
        E = np.divide(R, r_norm, out=np.zeros_like(R), where=keep)
        return _Frames(E, ov, np.array([abs(v) for v in ov.tolist()]), width, np.sum(E.conj() * B, axis=1))

    def _locate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(segment, eta) at each s; the one-state path sits at eta = 1."""
        L = len(self.states)
        x = np.clip(s, 0.0, 1.0) * (L - 1)
        j = np.minimum(np.floor(x), L - 2)
        return np.maximum(j, 0).astype(int), x - j

    @property
    def overlaps(self) -> list[float]:
        """|<a_j|a_{j+1}>| of each segment; a one-state path is one segment from a_0 to itself."""
        return self._frames.ov_mag.tolist()

    def _ground_coords(self, j, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gap and unit top eigenvector of (1-eta)|a><a| + eta|b><b| on segment j (one segment, or
        one per eta), the latter as frame coordinates (on a, on e)."""
        f = self._frames
        gap = two_projector_gap_formula(f.ov_mag[j], eta)
        beta = (1 + gap) / 2 - 1 + eta
        g_a, g_e = (1 - eta + beta) * f.ov[j], beta * f.b_e[j]
        norm = np.hypot(np.abs(g_a), np.abs(g_e))
        return gap, g_a / norm, g_e / norm

    def _lift(self, j: int, c_a: complex, c_e: complex) -> np.ndarray:
        return c_a * self.states[j] + c_e * self._frames.e[j]

    def gap(self, s):
        """Gap at each point of s, in the shape of s."""
        seg, eta = self._locate(np.asarray(s, dtype=float))
        return two_projector_gap_formula(self._frames.ov_mag[seg], eta)

    def derivative_norm(self, s):
        """||dH/ds|| = (L-1) ||b - <a|b> a|| at each point of s, in the shape of s.

        (L-1) sqrt(1 - |<a|b>|^2) would read ~1e-8 where a and b coincide.
        """
        seg, _ = self._locate(np.asarray(s, dtype=float))
        return (len(self.states) - 1) * self._frames.width[seg]

    def _grounds(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(segment, groundstate coordinate on a, on e) at each s."""
        seg, eta = self._locate(s)
        _, g_a, g_e = self._ground_coords(seg, eta)
        return seg, g_a, g_e

    def ground_state(self, s: float) -> StateVector:
        """Top eigenvector of (1-eta)|a><a| + eta|b><b|, phase-fixed as `qcore.ground_state` does."""
        seg, g_a, g_e = self._grounds(np.array([s], dtype=float))
        v = self._lift(seg[0], g_a[0], g_e[0])
        return StateVector(_fix_phase(v / np.linalg.norm(v)))

    def _evolve_segment(self, j: int, eta: np.ndarray, dt: float, psi: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """psi after e^{-iH(s)dt} at each eta of segment j in turn, and its squared groundstate overlap after each.

        On the frame, H(s) has eigenvalues (1 -+ gap)/2 with the groundstate g at the
        lower one, so e^{-iH dt} = p_hi I + (p_lo - p_hi)|g><g| with p = e^{-i dt (1 -+ gap)/2};
        off the frame it is the phase e^{-i dt}.  A step leaves |<g|psi>| as it was.
        """
        a, e = self.states[j], self._frames.e[j]
        gap, g_a, g_e = self._ground_coords(j, eta)
        p_hi = np.exp(-0.5j * dt * (1 + gap))
        c_a, c_e = complex(np.vdot(a, psi)), complex(np.vdot(e, psi))
        rest = psi - c_a * a - c_e * e
        overlaps = []
        for u_a, u_e, p, dp in zip(g_a.tolist(), g_e.tolist(), p_hi.tolist(),
                                   (np.exp(-0.5j * dt * (1 - gap)) - p_hi).tolist()):
            d = u_a.conjugate() * c_a + u_e.conjugate() * c_e  # <g|psi>
            overlaps.append(abs(d) ** 2)
            c_a, c_e = p * c_a + dp * d * u_a, p * c_e + dp * d * u_e
        return np.exp(-1j * dt * len(eta)) * rest + self._lift(j, c_a, c_e), overlaps


@dataclass(frozen=True)
class EvolutionReport:
    final_state: StateVector
    success_probability: float
    per_step_overlaps: np.ndarray


def projector_hamiltonian(alpha: StateVector) -> DenseHermitian:
    """I - |alpha><alpha|: groundstate alpha at value 0, rest at 1."""
    a = alpha.amplitudes
    return DenseHermitian(np.eye(a.size) - np.outer(a, a.conj()))


def two_projector_gap_formula(overlap_mag, eta):
    """Gap of (1-eta)(I-|a><a|) + eta(I-|b><b|): sqrt(1 - 4(1-eta)eta |b_perp|^2), elementwise."""
    return np.sqrt(np.maximum(1.0 - 4.0 * (1.0 - eta) * eta * (1.0 - overlap_mag * overlap_mag), 0.0))


class DisconnectedPathError(NumericalError, ValueError):
    """Consecutive groundstates are orthogonal; the jagged path has a closing gap."""


def jagged_path(states: Sequence[StateVector]) -> HamiltonianPath:
    """Piecewise-linear path through the projectors I - |alpha_j><alpha_j|."""
    if not states:
        raise ValueError("need at least one state")
    path = HamiltonianPath(np.array([a.amplitudes for a in states]))
    if min(path.overlaps) < 1e-12:
        raise DisconnectedPathError("zero overlap between consecutive states")
    return path


@dataclass(frozen=True)
class ConditionReport:
    max_ratio: float
    worst_s: float
    max_derivative_norm: float


CONDITION_GRID = 64  # points of the open s-grid; the pinned reference ratios were taken on it


def check_adiabatic_condition(path: HamiltonianPath) -> ConditionReport:
    """Worst ||dH/ds|| / gap^2 over an open grid; a run of length T meets the condition iff T*eps covers it.

    Gaps and derivative norms come from the path's per-segment values, O(1) per
    grid point.  The first worst point is reported; where every ratio is 0, worst_s is 0.
    """
    s = np.linspace(1e-5, 1 - 1e-5, CONDITION_GRID)
    gap, deriv = path.gap(s), path.derivative_norm(s)
    low = np.flatnonzero(gap < DEGENERACY_TOL)
    if low.size:
        raise DegenerateGroundstateError(f"path degenerate at s={float(s[low[0]])}: gap {float(gap[low[0]])}")
    ratio = deriv / (gap * gap)
    k = int(np.argmax(ratio))
    return ConditionReport(max_ratio=float(ratio[k]), worst_s=float(s[k]) if ratio[k] > 0 else 0.0,
                           max_derivative_norm=float(np.max(deriv)))


def evolve_discretized(path: HamiltonianPath, T: float, delta: float, psi0: StateVector) -> EvolutionReport:
    """Product of e^{-i H(s_k) dt} at the midpoints s_k of a uniform s-grid, dt = T / max(1, round(T / delta)).

    success_probability reports the squared overlap of the final state with
    the final groundstate.
    Each segment's run of steps is a run of 2x2 matvecs in that segment's frame
    (`HamiltonianPath._evolve_segment`), so the evolution costs O(L N + steps):
    the state is an N-vector only between segments.
    """
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if abs(abs(state_overlap(psi0, path.ground_state(0.0))) - 1.0) > 1e-6:
        raise ValueError("psi0 is not the groundstate of H(0)")
    steps = max(1, round(T / delta))
    dt = T / steps
    psi = psi0.amplitudes
    overlaps = np.empty(steps)
    seg, eta = path._locate((np.arange(steps) + 0.5) / steps)
    for j, lo, hi in _runs(seg):
        psi, overlaps[lo:hi] = path._evolve_segment(j, eta[lo:hi], dt, psi)
    fidelity_sq = abs(np.vdot(path.ground_state(1.0).amplitudes, psi)) ** 2
    return EvolutionReport(
        final_state=StateVector.from_amplitudes(psi),
        success_probability=float(fidelity_sq),
        per_step_overlaps=overlaps,
    )


# ---------------------------------------------------------------------------
# Phase estimation


class InsufficientPrecisionError(NumericalError, ValueError):
    """Ancilla register too coarse to resolve the spectral gap."""


def default_ancilla_bits(gap: float) -> int:
    return max(1, math.ceil(math.log2(8.0 / gap)))


def _qpe_register_amplitudes(phase: float, b: int) -> np.ndarray:
    """Amplitude on each register value y for an eigenstate with given phase."""
    B = 1 << b
    y = np.arange(B)
    theta = phase - y / B
    # Geometric sum (1/B) sum_k e^{2 pi i k theta}
    num = np.exp(2j * np.pi * B * theta) - 1.0
    den = np.exp(2j * np.pi * theta) - 1.0
    amps = np.where(np.abs(den) < 1e-12, 1.0, num / np.where(np.abs(den) < 1e-12, 1.0, den) / B)
    return amps


def _phase_setup(H: DenseHermitian, b: int):
    """Eigensystem plus phase encoding; groundvalue is assumed at 0."""
    vals, vecs = np.linalg.eigh(H.entries)
    gap = float(vals[1] - vals[0]) if H.dim >= 2 else 1.0
    if gap < DEGENERACY_TOL:
        raise DegenerateGroundstateError("degenerate groundstate in phase estimation")
    if 2.0 ** (-b) >= gap / 4.0:
        raise InsufficientPrecisionError(
            f"2^-{b} = {2.0 ** (-b):.3g} does not resolve gap/4 = {gap / 4:.3g}"
        )
    # Evolution-time unit keeping all phases in [0, 1/2] with ground at 0;
    # scaling by the spectral spread avoids wrap-around of the top eigenvalue.
    spread = float(vals[-1] - vals[0]) if H.dim >= 2 else 1.0
    t_base = math.pi / max(spread, 1e-12)
    phases = (vals - vals[0]) * t_base / (2 * math.pi)
    ground_threshold = gap * t_base / (2 * math.pi) / 2.0
    return vecs, phases, ground_threshold


def _is_ground_reading(y: int, b: int, ground_threshold: float) -> bool:
    B = 1 << b
    frac = y / B
    circ = min(frac, 1.0 - frac)
    return circ < ground_threshold


def phase_estimation_project(H: DenseHermitian, psi: StateVector, b: int,
                             rng: np.random.Generator) -> tuple[int, StateVector]:
    """Measure 'ground or not' by simulated phase estimation with b ancillas.

    Returns (0, ~groundstate) with probability ~|<alpha(H)|psi>|^2, else
    (1, ~orthogonal component); exact up to register leakage.
    """
    V, phases, thr = _phase_setup(H, b)
    B = 1 << b
    coeffs = V.conj().T @ psi.amplitudes
    # amps[j, y]: register amplitude for eigencomponent j
    amps = np.stack([_qpe_register_amplitudes(p, b) for p in phases])
    joint = coeffs[:, None] * amps  # joint amplitudes over (eigenstate, register)
    probs = np.sum(np.abs(joint) ** 2, axis=0)
    probs = probs / probs.sum()
    y = int(rng.choice(B, p=probs))
    post_coeffs = joint[:, y]
    post = V @ post_coeffs
    post = post / np.linalg.norm(post)
    outcome = 0 if _is_ground_reading(y, b, thr) else 1
    return outcome, StateVector.from_amplitudes(post)


def projector_hamiltonian_sim(H: DenseHermitian, t: float, b: int = 8) -> np.ndarray:
    """Approximate e^{-it Pi_H} (Pi_H = projector off the groundstate).

    Simulates estimate -> conditional phase on the flag -> un-estimate; the
    returned dense operator is the ancilla-restored block, near-unitary with
    deviation set by the register leakage.
    """
    V, phases, thr = _phase_setup(H, b)
    B = 1 << b
    flags = np.array([0.0 if _is_ground_reading(y, b, thr) else 1.0 for y in range(B)])
    gammas = np.empty(phases.size, dtype=complex)
    for j, p in enumerate(phases):
        w = np.abs(_qpe_register_amplitudes(p, b)) ** 2
        gammas[j] = np.sum(w * np.exp(-1j * t * flags))
    return (V * gammas) @ V.conj().T


def exact_projector_exponential(H: DenseHermitian, t: float) -> UnitaryMatrix:
    """Reference e^{-it Pi_H} built from the exact groundstate."""
    _, alpha = ground_state(H)
    return matrix_exponential(projector_hamiltonian(alpha), t)


# ---------------------------------------------------------------------------
# Zeno evolution


def zeno_evolve(path: HamiltonianPath, R: int) -> EvolutionReport:
    """R successive groundstate measurements at s = j/R (exact-projector mode), from the groundstate at s = 0.

    success_probability is the closed-form product of consecutive squared
    groundstate overlaps and the final state is the conditional (all-success)
    one.  `zeno_success_samples` draws trajectories from the per-step overlaps.
    Consecutive groundstates on one segment overlap as 2-vectors of its frame;
    only the pairs that straddle segments are lifted to N-vectors.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    seg, g_a, g_e = path._grounds(np.arange(R + 1) / R)
    step = g_a[:-1].conj() * g_a[1:] + g_e[:-1].conj() * g_e[1:]
    for k in np.flatnonzero(np.diff(seg)).tolist():
        step[k] = np.vdot(path._lift(seg[k], g_a[k], g_e[k]), path._lift(seg[k + 1], g_a[k + 1], g_e[k + 1]))
    step_probs = np.abs(step) ** 2
    return EvolutionReport(
        final_state=path.ground_state(1.0),
        success_probability=float(np.prod(step_probs)),
        per_step_overlaps=step_probs,
    )


ZENO_SHOT_CHUNK = 512  # trajectories drawn per array


def zeno_success_samples(step_probs: np.ndarray, shots: int, rng: np.random.Generator) -> int:
    """Number of all-success trajectories out of `shots` (vectorized, chunked)."""
    total = 0
    done = 0
    while done < shots:
        k = min(ZENO_SHOT_CHUNK, shots - done)
        u = rng.random((k, step_probs.size))
        total += int(np.sum(np.all(u < step_probs[None, :], axis=1)))
        done += k
    return total


def groundstate_perturbation_bound(H, J):
    """Groundstate overlap |<a(H)|a(J)>| and its lower bound 1 - 4 eta^2/gap^2, eta = ||H - J||.

    H and J are two DenseHermitian, or two (..., N, N) Hermitian stacks paired
    matrix by matrix.  Each operator's groundstate and gap come from one eigh
    call per operand, and eta from one eigvalsh call.  The result is two arrays
    in the shape of the stacks (0-d for a pair), NaN at each degenerate pair.
    """
    h, j = hermitian_entries(H), hermitian_entries(J)
    if h.shape != j.shape:
        raise DimensionMismatchError(f"shapes {h.shape} != {j.shape}")
    (valsH, vecsH), (valsJ, vecsJ) = np.linalg.eigh(h), np.linalg.eigh(j)
    gap = np.minimum(valsH[..., 1] - valsH[..., 0], valsJ[..., 1] - valsJ[..., 0])
    lhs = np.abs(np.sum(vecsH[..., 0].conj() * vecsJ[..., 0], axis=-1))
    degenerate = gap < DEGENERACY_TOL
    rhs = 1.0 - 4.0 * hermitian_norm(h - j) ** 2 / np.where(degenerate, np.nan, gap) ** 2
    return np.where(degenerate, np.nan, lhs), rhs


# ---------------------------------------------------------------------------
# Gate sequences and the circuit-to-path compiler


def _sqrt_pm1(U: np.ndarray) -> np.ndarray:
    """Square root of a +-1-eigenvalue unitary: 1 -> 1, -1 -> i."""
    vals, vecs = np.linalg.eigh(U)
    roots = np.where(vals > 0, 1.0 + 0j, 1j)
    return (vecs * roots) @ vecs.conj().T


_X2 = np.array([[0, 1], [1, 0]], dtype=complex)

# name -> (2x2 unitary on the target, qubit count).  A 3-qubit gate acts on its
# last qubit when the first two are 1.  "S" + name is the principal square root
# of a base gate; compile_circuit doubles each base gate into two of them.
GATES = {"H": (np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / math.sqrt(2.0)), 1),
         "X": (_X2, 1), "CCX": (_X2, 3)}
GATES.update({"S" + name: (_sqrt_pm1(U), k) for name, (U, k) in GATES.items()})


@dataclass(frozen=True)
class GateSequence:
    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        for name, qubits in self.gates:
            if name not in GATES:
                raise ValueError(f"unsupported gate {name!r}")
            want = GATES[name][1]
            if len(qubits) != want:
                raise ValueError(f"{name} takes {want} qubits, got {qubits}")
            if any(q < 0 or q >= self.n for q in qubits):
                raise ValueError(f"qubit index out of range in {name} {qubits}")
            if len(set(qubits)) != want:
                raise ValueError(f"{name} qubits must be distinct: {qubits}")


def parse_gate_lines(n: int, text: str) -> GateSequence:
    """Line format: 'H q' | 'X q' | 'CCX q1 q2 q3'."""
    gates = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        gates.append((parts[0], tuple(int(p) for p in parts[1:])))
    return GateSequence(n=n, gates=tuple(gates))


def _apply(state: np.ndarray, n: int, U: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """U on qubit qubits[-1] where the other `qubits` are 1, to a vector or to each column of a matrix."""
    psi = state.reshape([2] * n + [-1]).copy()  # the last axis runs over the columns
    sel = [slice(None)] * (n + 1)
    for c in qubits[:-1]:
        sel[c] = 1
    axis = qubits[-1] - sum(c < qubits[-1] for c in qubits[:-1])  # the target's axis once the controls are fixed
    sub = np.moveaxis(psi[tuple(sel)], axis, 0)
    psi[tuple(sel)] = np.moveaxis(np.tensordot(U, sub, axes=([1], [0])), 0, axis)
    return psi.reshape(state.shape)


def apply_gate(state: np.ndarray, n: int, name: str, qubits: tuple[int, ...]) -> np.ndarray:
    """Gate `name` of GATES on `qubits`, to a vector or to each column of a matrix."""
    return _apply(state, n, GATES[name][0], qubits)


def expand_sqrt(gates: GateSequence) -> GateSequence:
    """Replace each base gate by two of its square roots."""
    out = []
    for name, qubits in gates.gates:
        if "S" + name not in GATES:
            bases = tuple(b for b in GATES if "S" + b in GATES)
            raise ValueError(f"only base gates {bases} may be compiled, got {name!r}")
        out += [("S" + name, qubits)] * 2
    return GateSequence(n=gates.n, gates=tuple(out))


def input_state(n: int, x: str) -> StateVector:
    """|x, 0...0> on n qubits; x gives the leading bits."""
    bits = x + "0" * (n - len(x))
    if len(bits) != n or any(b not in "01" for b in bits):
        raise ValueError(f"bad input bitstring {x!r} for n={n}")
    return StateVector.basis(1 << n, int(bits, 2))


def circuit_states(gates: GateSequence, x: str) -> list[StateVector]:
    """Intermediate states |alpha(j)> after each prefix of the sequence."""
    psi = input_state(gates.n, x).amplitudes
    out = [StateVector.from_amplitudes(psi)]
    for name, qubits in gates.gates:
        psi = apply_gate(psi, gates.n, name, qubits)
        out.append(StateVector.from_amplitudes(psi))
    return out


def simulate_circuit(gates: GateSequence, x: str) -> StateVector:
    return circuit_states(gates, x)[-1]


def compile_circuit(gates: GateSequence, x: str) -> HamiltonianPath:
    """Jagged projector path tracking the sqrt-doubled circuit on input x.

    Every consecutive groundstate overlap is >= 1/sqrt(2), so the path gap
    never falls below 1/sqrt(2).
    """
    doubled = expand_sqrt(gates)
    states = circuit_states(doubled, x)
    return jagged_path(states)


def simulatable_handle_for_step(gates: GateSequence, x: str, j: int, delta: float) -> np.ndarray:
    """Dense e^{-i delta H_x(j)} via prefix-conjugated conditional phase.

    H_x(j) = I - |alpha_x(j)><alpha_x(j)| for the sqrt-doubled circuit: undo
    the first j gates, phase e^{-i delta} everything except |x, 0...0>, redo
    the gates.  Each gate acts on all columns at once.
    """
    doubled = expand_sqrt(gates)
    if not 0 <= j <= len(doubled.gates):
        raise IndexError(f"prefix index {j} out of range [0, {len(doubled.gates)}]")
    n = gates.n
    N = 1 << n
    x0 = int((x + "0" * (n - len(x))), 2)
    U = np.eye(N, dtype=complex)
    prefix = doubled.gates[:j]
    for name, qubits in reversed(prefix):
        U = _apply(U, n, GATES[name][0].conj().T, qubits)
    phases = np.full(N, np.exp(-1j * delta), dtype=complex)
    phases[x0] = 1.0
    U = phases[:, None] * U
    for name, qubits in prefix:
        U = apply_gate(U, n, name, qubits)
    return U
