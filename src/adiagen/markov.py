"""Reversible Markov chains, their Hamiltonians, and matchings Qsampling.

Covers the chain-to-Hamiltonian correspondence (spectrum and groundstate),
slowly-varying chain sequences driven through the jagged-path machinery, and
the perfect-matchings pipeline on K_{n,n} with a geometric annealing schedule
on non-target edges.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import adiabatic
from .qcore import DEGENERACY_TOL, NumericalError, StateVector, ground_state  # noqa: F401
# ground_state is no longer called here; perfbench's tracer test still reads markov.ground_state.

SQRT_PI_TOL = 1e-8  # largest certified ||g - |sqrt(pi)>|| for the groundstate g of H_M


class NotReversibleError(NumericalError, ValueError):
    pass


class NotErgodicError(NumericalError, ValueError):
    pass


@dataclass(frozen=True)
class MarkovChain:
    """A transition matrix and the distribution pi it satisfies detailed balance with.

    Detailed balance pi_i P_ij = pi_j P_ji, checked once here, makes pi
    stationary; `chain_gap` certifies that it is the only stationary distribution.
    """

    transition: np.ndarray
    pi: StationaryDistribution

    def __post_init__(self):
        M = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "transition", M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.isfinite(M).all():
            raise ValueError("transition matrix has a NaN or infinite entry")
        if np.any(M < -1e-12):
            raise ValueError("negative transition probability")
        rowsums = M.sum(axis=1)
        if np.max(np.abs(rowsums - 1.0)) > 1e-10:
            raise ValueError("rows must sum to 1")
        if self.pi.pi.shape != (M.shape[0],):
            raise ValueError(f"pi has shape {self.pi.pi.shape}, not one entry per state of {M.shape[0]}")
        if reversibility_residual(self) > 1e-8:
            raise NotReversibleError("chain is not reversible w.r.t. its stationary distribution")

    @property
    def N(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", p)
        if not np.isfinite(p).all():
            raise ValueError("distribution has a NaN or infinite entry")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("distribution must sum to 1")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")


@dataclass(frozen=True)
class ChainSequence:
    chains: tuple[MarkovChain, ...]
    variation_threshold: float = 1.0  # slow-variation bound on ||pi_t - pi_{t+1}||

    def __post_init__(self):
        Ns = {c.N for c in self.chains}
        if len(Ns) > 1:
            raise ValueError("all chains must share a state space")

    @cached_property
    def gaps(self) -> tuple[float, ...]:
        """Each chain Hamiltonian's certified spectral gap (`chain_gap`), computed on first use."""
        return tuple(chain_gap(c) for c in self.chains)


def reversibility_residual(M: MarkovChain) -> float:
    flow = M.pi.pi[:, None] * M.transition
    return float(np.max(np.abs(flow - flow.T)))


def chain_hamiltonian(M: MarkovChain) -> np.ndarray:
    """H_M = I - Diag(sqrt(pi)) M Diag(1/sqrt(pi)), real symmetric since M is reversible."""
    sq = np.sqrt(M.pi.pi)
    H = np.eye(M.N) - (sq[:, None] * M.transition) / sq[None, :]
    return (H + H.T) / 2  # kill reversibility-residual asymmetry at round-off scale


def sqrt_pi_deviation(H: np.ndarray, pi: StationaryDistribution, spectrum: np.ndarray) -> float:
    """Bound on ||g - |sqrt(pi)>|| for the phase-aligned groundstate g of H; inf if there is none.

    `spectrum` is H's ascending eigvalsh spectrum; no eigenvector is computed.
    With v = |sqrt(pi)>, theta = <v|H|v> and r = ||Hv - theta v||, the
    Davis-Kahan sin-theta theorem gives sin(angle(g, v)) <= s = r / (lambda_1 - theta)
    when theta lies nearer lambda_0 than lambda_1.  The chord ||g - v|| =
    2 sin(angle/2) is then at most 2 sin(asin(s)/2), which equals s to
    round-off for s below 1e-8.
    """
    v = np.sqrt(pi.pi)
    v = v / np.linalg.norm(v)
    Hv = H @ v
    theta = float(np.vdot(v, Hv).real)
    above = spectrum[1] - theta if spectrum.size > 1 else math.inf
    if above <= 0 or theta - spectrum[0] >= above:
        return math.inf
    s = float(np.linalg.norm(Hv - theta * v)) / above
    return 2 * math.sin(math.asin(s) / 2) if s < 1 else math.inf


def chain_gap(M: MarkovChain) -> float:
    """H_M's gap lambda_1 - lambda_0, certified with one eigvalsh of the real symmetric H_M.

    H_M's spectrum is 1 minus M's, so a gap above DEGENERACY_TOL means
    eigenvalue 1 of M is simple and pi is its only stationary distribution;
    `sqrt_pi_deviation` <= SQRT_PI_TOL means |sqrt(pi)> is H_M's groundstate.
    Either failing raises NotErgodicError.  A one-state chain's gap is inf.
    """
    if not np.all(M.pi.pi > 0):
        raise NotErgodicError("a state has zero stationary mass")
    H = chain_hamiltonian(M)
    spectrum = np.linalg.eigvalsh(H)
    gap = float(spectrum[1] - spectrum[0]) if M.N > 1 else math.inf
    if not gap > DEGENERACY_TOL:
        raise NotErgodicError(f"eigenvalue 1 is not simple: H_M's gap {gap:.3e} <= {DEGENERACY_TOL:.0e}")
    deviation = sqrt_pi_deviation(H, M.pi, spectrum)
    if not deviation <= SQRT_PI_TOL:
        raise NotErgodicError(f"|sqrt(pi)> is not H_M's groundstate: deviation bound {deviation:.3e}")
    return gap


def _next_pow2(N: int) -> int:
    return 1 << max(0, (N - 1).bit_length())


def pi_state(pi: StationaryDistribution) -> StateVector:
    """sum_i sqrt(pi_i) |i>, zero-padded to the next power-of-two dimension."""
    N = pi.pi.size
    amps = np.zeros(_next_pow2(N), dtype=complex)
    amps[:N] = np.sqrt(pi.pi)
    return StateVector.from_amplitudes(amps)


def metropolis_chain(weights: Sequence[float], neighbors: Sequence[Sequence[int]]) -> MarkovChain:
    """Lazy Metropolis chain, carrying its stationary distribution pi = w / sum(w).

    Proposal: pick one of max-degree move slots uniformly (missing slots
    stay put), accept with min(1, w_target/w_source); then mix with a 1/2
    self-loop.  The slot-capped proposal is symmetric as a matrix, so
    detailed balance holds entrywise.
    """
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    N = w.size

    # Connectivity of the proposal graph.
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in neighbors[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != N:
        raise ValueError("proposal graph is disconnected")

    degrees = [len(nb) for nb in neighbors]
    src = np.repeat(np.arange(N), degrees)
    dst = np.array([j for nb in neighbors for j in nb], dtype=src.dtype)
    deg = max(max(degrees), 1)  # a 1-state chain has no moves
    P = np.zeros((N, N))
    np.add.at(P, (src, dst), (1.0 / deg) * np.minimum(1.0, w[dst] / w[src]))
    P[np.diag_indices(N)] += 1.0 - P.sum(axis=1)
    P = 0.5 * np.eye(N) + 0.5 * P
    return MarkovChain(transition=P, pi=StationaryDistribution(w / w.sum()))


def variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(p - q)))


def check_slowly_varying(seq: ChainSequence) -> tuple[int, ...]:
    """The steps t whose variation distance ||pi_t - pi_{t+1}|| exceeds the sequence's threshold.

    Each step's fidelity <pi_t|pi_{t+1}> (the groundstate overlap) is checked
    against its lower bound 1 - distance.
    """
    pis = [c.pi.pi for c in seq.chains]
    violations = []
    for t in range(len(pis) - 1):
        d = variation_distance(pis[t], pis[t + 1])
        f = float(np.sum(np.sqrt(pis[t] * pis[t + 1])))
        if d > seq.variation_threshold:
            violations.append(t)
        if f < 1.0 - d - 1e-9:
            raise AssertionError(f"fidelity bound violated at step {t}: F={f}, dist={d}")
    return tuple(violations)


def qsample_sequence(seq: ChainSequence, seed: StateVector, mode: str = "zeno",
                     R: int = 500, eps: float = 0.01, delta: float = 0.1) -> adiabatic.EvolutionReport:
    """Drive |pi_0> to |pi_T> along the jagged path of the chain Hamiltonians."""
    violations = check_slowly_varying(seq)
    if violations:
        raise ValueError(f"sequence is not slowly varying at steps {violations}")
    seq.gaps  # NotErgodicError unless each |sqrt(pi)> is its chain Hamiltonian's unique groundstate
    targets = [pi_state(c.pi) for c in seq.chains]
    if abs(abs(np.vdot(seed.amplitudes, targets[0].amplitudes)) - 1.0) > 1e-6:
        raise ValueError("seed state does not match |pi_0>")
    if len(targets) == 1:
        return adiabatic.EvolutionReport(
            final_state=seed, success_probability=1.0,
            per_step_overlaps=np.ones(1))
    path = adiabatic.jagged_path(targets)
    if mode == "zeno":
        return adiabatic.zeno_evolve(path, R)
    if mode == "schrodinger":
        if not eps > 0:
            raise ValueError("eps must be positive")
        T = max(1.0, adiabatic.check_adiabatic_condition(path).max_ratio / eps)
        return adiabatic.evolve_discretized(path, T, delta, targets[0])
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Perfect matchings of K_{n,n}

MAX_MATCHING_N = 4


@dataclass(frozen=True)
class MatchingSpace:
    n: int
    target_edges: frozenset
    states: tuple
    index: dict

    @property
    def N(self) -> int:
        return len(self.states)

    def is_perfect(self, m) -> bool:
        return len(m) == self.n

    def perfect_indices(self) -> list[int]:
        return [i for i, m in enumerate(self.states) if self.is_perfect(m)]


def matchings_space(n: int, target_edges=None) -> MatchingSpace:
    """All matchings of K_{n,n} with n or n-1 edges, in a stable order."""
    if n < 1 or n > MAX_MATCHING_N:
        raise ValueError(f"n must be in [1, {MAX_MATCHING_N}]")
    if target_edges is None:
        target_edges = {(u, v) for u in range(n) for v in range(n)}
    states = []
    # Perfect matchings: one per permutation.
    for perm in itertools.permutations(range(n)):
        states.append(frozenset((u, perm[u]) for u in range(n)))
    # Near-perfect: unmatched left u, unmatched right v, bijection on the rest.
    for u in range(n):
        for v in range(n):
            lefts = [a for a in range(n) if a != u]
            rights = [b for b in range(n) if b != v]
            for perm in itertools.permutations(rights):
                states.append(frozenset(zip(lefts, perm)))
    states = tuple(dict.fromkeys(states))  # dedupe (n=1 empty matching repeats), keep order
    return MatchingSpace(
        n=n,
        target_edges=frozenset(target_edges),
        states=states,
        index={m: i for i, m in enumerate(states)},
    )


def matching_neighbors(space: MatchingSpace) -> list[list[int]]:
    """JSV-style moves: remove an edge, fill the hole edge, or slide a hole."""
    n = space.n
    out = []
    for m in space.states:
        nb = []
        if space.is_perfect(m):
            for e in sorted(m):
                nb.append(space.index[m - {e}])
        else:
            lefts = {u for u, _ in m}
            rights = {v for _, v in m}
            hole_u = next(u for u in range(n) if u not in lefts)
            hole_v = next(v for v in range(n) if v not in rights)
            nb.append(space.index[m | {(hole_u, hole_v)}])
            for (x, y) in sorted(m):
                nb.append(space.index[(m - {(x, y)}) | {(hole_u, y)}])
                nb.append(space.index[(m - {(x, y)}) | {(x, hole_v)}])
        out.append(nb)
    return out


def matching_weight(space: MatchingSpace, m, activity: float) -> float:
    """n^{[near-perfect]} * activity^{#edges outside the target graph}."""
    off = sum(1 for e in m if e not in space.target_edges)
    base = float(space.n) if not space.is_perfect(m) else 1.0
    return base * activity**off


def matchings_seed_qsample(n: int) -> tuple[StateVector, MatchingSpace]:
    """Seed state built by the three-register procedure, padded to 2^k.

    Registers: a superposition over all permutation matchings, an edge-index
    register |0> + sqrt(n) sum_i |i>, and an edge-removal map |m, i> ->
    |0, m - e_i>.
    """
    space = matchings_space(n)
    amps = np.zeros(space.N)
    perm_amp = 1.0 / math.sqrt(math.factorial(n))
    idx_norm = math.sqrt(1.0 + n * n)  # weights 1, sqrt(n) x n
    for perm in itertools.permutations(range(n)):
        m = frozenset((u, perm[u]) for u in range(n))
        # i = 0: keep the matching.
        amps[space.index[m]] += perm_amp * (1.0 / idx_norm)
        # i > 0: remove the i-th edge (ordered by left vertex).
        for u, v in sorted(m):
            amps[space.index[m - {(u, v)}]] += perm_amp * (math.sqrt(n) / idx_norm)
    padded = np.zeros(_next_pow2(space.N), dtype=complex)
    padded[: space.N] = amps
    return StateVector.from_amplitudes(padded), space


def anneal_weights_sequence(n: int, target_edges, steps: int, ratio: float) -> tuple[ChainSequence, MatchingSpace]:
    """Metropolis chains with the non-target edge activity decaying geometrically."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    space = matchings_space(n, target_edges)
    if not any(all(e in space.target_edges for e in space.states[i])
               for i in space.perfect_indices()):
        raise ValueError("target graph has no perfect matching")
    neighbors = matching_neighbors(space)
    chains = []
    for k in range(steps + 1):
        activity = ratio**k
        w = [matching_weight(space, m, activity) for m in space.states]
        chains.append(metropolis_chain(w, neighbors))
    return ChainSequence(chains=tuple(chains), variation_threshold=0.5), space


def project_perfect(state: StateVector, space: MatchingSpace) -> tuple[StateVector, float]:
    """Measurement onto the perfect-matching subspace, conditioned on success.

    Returns (post_state, success_probability).
    """
    perfect = space.perfect_indices()
    if not perfect:
        raise ValueError("empty perfect-matching subspace")
    mask = np.zeros(state.dim, dtype=bool)
    mask[perfect] = True
    amps = state.amplitudes
    p = float(np.sum(np.abs(amps[mask]) ** 2))
    if p == 0:
        raise ValueError("the perfect-matching outcome has probability 0 on this state")
    post = np.where(mask, amps, 0)
    return StateVector.from_amplitudes(post / np.linalg.norm(post)), p
