"""Reference oracles that the package's routines are tested against.

`path_hamiltonian` is the dense H(s) of a jagged path, `padded_chain_hamiltonian`
embeds a chain Hamiltonian in power-of-two dimension,
`direct_seed_amplitudes` writes the matchings seed state down directly, and
`fidelity` is the classical fidelity that Qsample overlaps equal.
"""
import math

import numpy as np

from adiagen.markov import MarkovChain, MatchingSpace, StationaryDistribution, _next_pow2, chain_hamiltonian
from adiagen.qcore import DenseHermitian
from adiagen.szk import OutputDistribution

PAD_ENERGY = 3.0  # above the [0, 2] spectrum of any chain Hamiltonian


def path_hamiltonian(path, s: float) -> DenseHermitian:
    """H(s) = (1-eta)(I-|a><a|) + eta(I-|b><b|) on the segment of `path` at s."""
    a, b, eta, _, _ = path._segment(s)
    return DenseHermitian(np.eye(a.size) - (1 - eta) * np.outer(a, a.conj()) - eta * np.outer(b, b.conj()))


def padded_chain_hamiltonian(M: MarkovChain, pi: StationaryDistribution | None = None) -> DenseHermitian:
    """H_M embedded in power-of-two dimension; padding coordinates sit at PAD_ENERGY."""
    H = chain_hamiltonian(M, pi)
    N = H.dim
    out = np.eye(_next_pow2(N), dtype=complex) * PAD_ENERGY
    out[:N, :N] = H.entries
    return DenseHermitian(out)


def direct_seed_amplitudes(space: MatchingSpace) -> np.ndarray:
    """Amplitude 1 on perfect matchings, sqrt(n) on near-perfect, normalized."""
    amps = np.array([1.0 if space.is_perfect(m) else math.sqrt(space.n) for m in space.states])
    return amps / np.linalg.norm(amps)


def fidelity(p: OutputDistribution, q: OutputDistribution) -> float:
    """sum_z sqrt(p(z) q(z))."""
    if p.m != q.m:
        raise ValueError("dimension mismatch")
    return float(np.sum(np.sqrt(p.probabilities * q.probabilities)))
