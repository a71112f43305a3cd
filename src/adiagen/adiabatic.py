"""Adiabatic path machinery.

Paths through Hamiltonian space, the adiabatic-condition check, discretized
Schrodinger evolution, measurement-driven (Zeno) evolution, phase-estimation
projection, jagged projector paths, and the circuit-to-path compiler.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    decompose_hermitian,
    ground_state,
    hermitian_entries,
    hermitian_norm,
    matrix_exponential,
    spectral_norm,
    state_overlap,
)


@dataclass(frozen=True, eq=False)
class HamiltonianPath:
    """Jagged path through the projectors I - |a_j><a_j|, with a_j reached at s = j/(L-1).

    Each segment (1-eta)(I-|a><a|) + eta(I-|b><b|) is the identity outside
    span{a, b}, so the methods are O(N) closed forms.
    """

    states: np.ndarray  # L x N: the groundstates a_0 ... a_{L-1}

    def _segment(self, s: float) -> tuple[np.ndarray, np.ndarray, float, complex, float]:
        """(a, b, eta, <a|b>, gap) at s; a one-state path has a = b."""
        L = len(self.states)
        x = min(max(s, 0.0), 1.0) * (L - 1)
        j = min(int(x), L - 2)  # -1 when L == 1, and states[-1] is states[0]
        a, b = self.states[j], self.states[j + 1]
        ov = complex(np.vdot(a, b))
        return a, b, x - j, ov, two_projector_gap_formula(abs(ov), x - j)

    def gap(self, s: float) -> float:
        return self._segment(s)[4]

    def derivative_norm(self, s: float) -> float:
        """||dH/ds|| = (L-1) ||b - <a|b> a||; (L-1) sqrt(1 - |<a|b>|^2) reads ~1e-8 where a and b coincide."""
        a, b, _, ov, _ = self._segment(s)
        return (len(self.states) - 1) * float(np.linalg.norm(b - ov * a))

    def ground_state(self, s: float) -> StateVector:
        """Top eigenvector of (1-eta)|a><a| + eta|b><b|, phase-fixed as `qcore.ground_state` does."""
        a, b, eta, ov, gap = self._segment(s)
        v = (1 - eta) * ov * a + ((1 + gap) / 2 - 1 + eta) * b
        return StateVector(_fix_phase(v / np.linalg.norm(v)))

    def evolve(self, s: float, t: float, psi: np.ndarray) -> np.ndarray:
        """e^{-iH(s)t} psi = e^{-it} e^{itM} psi with M = (1-eta)|a><a| + eta|b><b|.

        M has eigenvalues lo, hi = (1 -+ gap)/2 on span{a, b} and 0 elsewhere, so
        e^{itM} psi = psi + f(lo) M psi + (f(hi) - f(lo))/gap (M - lo) M psi
        with f(x) = (e^{itx} - 1)/x, which np.sinc keeps finite at x = 0.
        """
        a, b, eta, _, gap = self._segment(s)
        lo, hi = (1 - gap) / 2, (1 + gap) / 2
        f_lo, f_hi = (1j * t * np.exp(0.5j * t * x) * np.sinc(t * x / (2 * np.pi)) for x in (lo, hi))
        Mpsi = (1 - eta) * np.vdot(a, psi) * a + eta * np.vdot(b, psi) * b
        MMpsi = (1 - eta) * np.vdot(a, Mpsi) * a + eta * np.vdot(b, Mpsi) * b
        return np.exp(-1j * t) * (psi + f_lo * Mpsi + (f_hi - f_lo) / gap * (MMpsi - lo * Mpsi))


@dataclass(frozen=True)
class Schedule:
    T: float
    eps: float

    def __post_init__(self):
        if self.T <= 0 or self.eps <= 0:
            raise ValueError("T and eps must be positive")


@dataclass(frozen=True)
class EvolutionReport:
    final_state: StateVector
    success_probability: float
    per_step_overlaps: np.ndarray
    steps: int
    succeeded: bool | None = None
    warnings: tuple[str, ...] = ()


def projector_hamiltonian(alpha: StateVector) -> DenseHermitian:
    """I - |alpha><alpha|: groundstate alpha at value 0, rest at 1."""
    a = alpha.amplitudes
    return DenseHermitian(np.eye(a.size) - np.outer(a, a.conj()))


def two_projector_gap_formula(overlap_mag, eta):
    """Gap of (1-eta)(I-|a><a|) + eta(I-|b><b|): sqrt(1 - 4(1-eta)eta |b_perp|^2).

    Floats give a float; arrays give the array of gaps, elementwise.
    """
    b_perp_sq = 1.0 - overlap_mag**2
    x = 1.0 - 4.0 * (1.0 - eta) * eta * b_perp_sq
    if isinstance(x, np.ndarray):
        return np.sqrt(np.maximum(x, 0.0))
    return math.sqrt(max(0.0, x))


class DisconnectedPathError(NumericalError, ValueError):
    """Consecutive groundstates are orthogonal; the jagged path has a closing gap."""


def jagged_path(states: Sequence[StateVector]) -> HamiltonianPath:
    """Piecewise-linear path through the projectors I - |alpha_j><alpha_j|."""
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    for a, b in zip(states, states[1:]):
        if abs(state_overlap(a, b)) < 1e-12:
            raise DisconnectedPathError("zero overlap between consecutive states")
    return HamiltonianPath(np.array([a.amplitudes for a in states]))


@dataclass(frozen=True)
class ConditionReport:
    max_ratio: float
    holds: bool
    worst_s: float
    max_derivative_norm: float


CONDITION_GRID = 64  # points of the open s-grid; the pinned reference ratios were taken on it


def check_adiabatic_condition(path: HamiltonianPath, sched: Schedule) -> ConditionReport:
    """Worst ||dH/ds|| / gap^2 over an open grid; the condition holds iff T*eps covers it."""
    max_ratio, worst_s, max_deriv = 0.0, 0.0, 0.0
    for s in np.linspace(1e-5, 1 - 1e-5, CONDITION_GRID):
        s = float(s)
        gap = path.gap(s)
        if gap < DEGENERACY_TOL:
            raise DegenerateGroundstateError(f"path degenerate at s={s}: gap {gap}")
        deriv = path.derivative_norm(s)
        max_deriv = max(max_deriv, deriv)
        ratio = deriv / gap**2
        if ratio > max_ratio:
            max_ratio, worst_s = ratio, s
    return ConditionReport(
        max_ratio=max_ratio,
        holds=sched.T * sched.eps >= max_ratio,
        worst_s=worst_s,
        max_derivative_norm=max_deriv,
    )


def evolve_discretized(path: HamiltonianPath, sched: Schedule, delta: float,
                       psi0: StateVector, cond: ConditionReport) -> EvolutionReport:
    """Product of e^{-i H(s_j) delta} over a uniform s-grid with T ds = delta.

    `cond` is `check_adiabatic_condition` of this path, for any schedule: the
    condition is judged against `sched` here.  success_probability reports
    the squared overlap of the final state with the final groundstate.
    """
    if abs(abs(state_overlap(psi0, path.ground_state(0.0))) - 1.0) > 1e-6:
        raise ValueError("psi0 is not the groundstate of H(0)")
    warnings: list[str] = []
    if sched.T * sched.eps < cond.max_ratio:
        warnings.append(
            f"adiabatic condition violated: T*eps={sched.T * sched.eps:.4g} "
            f"< max ratio {cond.max_ratio:.4g}"
        )
    steps = max(1, round(sched.T / delta))
    dt = sched.T / steps
    psi = psi0.amplitudes.copy()
    overlaps = np.empty(steps)
    for j in range(steps):
        s = (j + 0.5) / steps
        psi = path.evolve(s, dt, psi)
        overlaps[j] = abs(np.vdot(path.ground_state(s).amplitudes, psi)) ** 2
    fidelity_sq = abs(np.vdot(path.ground_state(1.0).amplitudes, psi)) ** 2
    return EvolutionReport(
        final_state=StateVector.from_amplitudes(psi, normalize=True),
        success_probability=float(fidelity_sq),
        per_step_overlaps=overlaps,
        steps=steps,
        warnings=tuple(warnings),
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
    dec = decompose_hermitian(H)
    vals = dec.eigenvalues
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
    return dec, phases, ground_threshold


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
    dec, phases, thr = _phase_setup(H, b)
    B = 1 << b
    coeffs = dec.eigenvectors.conj().T @ psi.amplitudes
    # amps[j, y]: register amplitude for eigencomponent j
    amps = np.stack([_qpe_register_amplitudes(p, b) for p in phases])
    joint = coeffs[:, None] * amps  # joint amplitudes over (eigenstate, register)
    probs = np.sum(np.abs(joint) ** 2, axis=0)
    probs = probs / probs.sum()
    y = int(rng.choice(B, p=probs))
    post_coeffs = joint[:, y]
    post = dec.eigenvectors @ post_coeffs
    post = post / np.linalg.norm(post)
    outcome = 0 if _is_ground_reading(y, b, thr) else 1
    return outcome, StateVector.from_amplitudes(post, normalize=True)


def projector_hamiltonian_sim(H: DenseHermitian, t: float, b: int = 8) -> np.ndarray:
    """Approximate e^{-it Pi_H} (Pi_H = projector off the groundstate).

    Simulates estimate -> conditional phase on the flag -> un-estimate; the
    returned dense operator is the ancilla-restored block, near-unitary with
    deviation set by the register leakage.
    """
    dec, phases, thr = _phase_setup(H, b)
    B = 1 << b
    flags = np.array([0.0 if _is_ground_reading(y, b, thr) else 1.0 for y in range(B)])
    gammas = np.empty(dec.dim, dtype=complex)
    for j, p in enumerate(phases):
        w = np.abs(_qpe_register_amplitudes(p, b)) ** 2
        gammas[j] = np.sum(w * np.exp(-1j * t * flags))
    V = dec.eigenvectors
    return (V * gammas) @ V.conj().T


def exact_projector_exponential(H: DenseHermitian, t: float) -> UnitaryMatrix:
    """Reference e^{-it Pi_H} built from the exact groundstate."""
    _, alpha = ground_state(H)
    return matrix_exponential(projector_hamiltonian(alpha), t)


# ---------------------------------------------------------------------------
# Zeno evolution


def zeno_evolve(path: HamiltonianPath, R: int, psi0: StateVector,
                rng: np.random.Generator | None = None) -> EvolutionReport:
    """R successive groundstate measurements at s = j/R (exact-projector mode).

    With rng=None the report is deterministic: success_probability is the
    closed-form product of consecutive squared groundstate overlaps and the
    final state is the conditional (all-success) one.  With an rng, a single
    measurement trajectory is sampled and `succeeded` records its outcome.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    grid_states = [path.ground_state(j / R) for j in range(R + 1)]
    if abs(abs(state_overlap(psi0, grid_states[0])) - 1.0) > 1e-6:
        raise ValueError("psi0 is not the groundstate of H(0)")
    step_probs = np.array([
        abs(state_overlap(grid_states[j], grid_states[j + 1])) ** 2 for j in range(R)
    ])
    exact_success = float(np.prod(step_probs))

    if rng is None:
        return EvolutionReport(
            final_state=grid_states[-1],
            success_probability=exact_success,
            per_step_overlaps=step_probs,
            steps=R,
        )

    cur = psi0.amplitudes.copy()
    succeeded = True
    for j in range(1, R + 1):
        g = grid_states[j].amplitudes
        p = abs(np.vdot(g, cur)) ** 2
        if rng.random() < p:
            cur = g.copy()
        else:
            cur = cur - np.vdot(g, cur) * g
            cur = cur / np.linalg.norm(cur)
            succeeded = False
    return EvolutionReport(
        final_state=StateVector.from_amplitudes(cur, normalize=True),
        success_probability=exact_success,
        per_step_overlaps=step_probs,
        steps=R,
        succeeded=succeeded,
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
    call per operand.  A pair of DenseHermitian gives two floats and raises
    DegenerateGroundstateError on a degenerate groundstate; stacks give two
    arrays, NaN at each degenerate pair.
    """
    h, j = hermitian_entries(H), hermitian_entries(J)
    if h.shape != j.shape:
        raise DimensionMismatchError(f"shapes {h.shape} != {j.shape}")
    (valsH, vecsH), (valsJ, vecsJ) = np.linalg.eigh(h), np.linalg.eigh(j)
    gap = np.minimum(valsH[..., 1] - valsH[..., 0], valsJ[..., 1] - valsJ[..., 0])
    lhs = np.abs(np.sum(vecsH[..., 0].conj() * vecsJ[..., 0], axis=-1))
    if isinstance(H, DenseHermitian):
        if gap < DEGENERACY_TOL:
            raise DegenerateGroundstateError(f"groundstate degenerate: gap {gap:.3e} < tol {DEGENERACY_TOL:.3e}")
        return float(lhs), 1.0 - 4.0 * spectral_norm(h - j) ** 2 / float(gap) ** 2
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
    out = [StateVector.from_amplitudes(psi, normalize=True)]
    for name, qubits in gates.gates:
        psi = apply_gate(psi, gates.n, name, qubits)
        out.append(StateVector.from_amplitudes(psi, normalize=True))
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
