"""Reference oracles that the package's routines are tested against.

`path_hamiltonian` is the dense H(s) of a jagged path and `condition_reference`
its adiabatic condition taken point by point, `perturbation_bound_pair` is the
groundstate perturbation bound of one pair of matrices, `padded_chain_hamiltonian`
embeds a chain Hamiltonian in power-of-two dimension,
`stationary` finds a transition matrix's stationary distribution by an SVD and
`oracle_chain` builds a chain from a bare transition matrix with that
distribution, `direct_seed_amplitudes` writes the matchings seed state down
directly, `fidelity` is the classical fidelity that Qsample overlaps equal,
and `discrete_log` walks g, g^2, ... until it meets y.
`pieces_of` cuts a decomposition into its pieces, `piece_matrix` is a
piece's dense matrix, and `piece_exponential` and `per_piece_trotter_step`
apply a decomposition's Trotter product one piece at a time, copying the state
for each piece.
"""
import math
from typing import NamedTuple

import numpy as np

from adiagen.adiabatic import CONDITION_GRID, ConditionReport, two_projector_gap_formula
from adiagen.markov import (
    MarkovChain,
    MatchingSpace,
    NotErgodicError,
    chain_hamiltonian,
)
from adiagen.qcore import DEGENERACY_TOL, DegenerateGroundstateError, DenseHermitian
from adiagen.sparseham import Decomposition
from adiagen.szk import OutputDistribution

PAD_ENERGY = 3.0  # above the [0, 2] spectrum of any chain Hamiltonian


def path_segment(path, s: float):
    """(a, b, eta) of the segment of `path` at s; a one-state path has a = b at eta = 1."""
    L = len(path.states)
    x = min(max(s, 0.0), 1.0) * (L - 1)
    j = min(int(x), L - 2)  # -1 when L == 1, and states[-1] is states[0]
    return path.states[j], path.states[j + 1], x - j


def path_hamiltonian(path, s: float) -> DenseHermitian:
    """H(s) = (1-eta)(I-|a><a|) + eta(I-|b><b|) on the segment of `path` at s."""
    a, b, eta = path_segment(path, s)
    return DenseHermitian(np.eye(a.size) - (1 - eta) * np.outer(a, a.conj()) - eta * np.outer(b, b.conj()))


def condition_reference(path) -> ConditionReport:
    """The adiabatic condition point by point on CONDITION_GRID, each point's <a|b> and
    ||b - <a|b>a|| taken from the N-vectors."""
    max_ratio, worst_s, max_deriv = 0.0, 0.0, 0.0
    for s in np.linspace(1e-5, 1 - 1e-5, CONDITION_GRID):
        s = float(s)
        a, b, eta = path_segment(path, s)
        ov = complex(np.vdot(a, b))
        gap = two_projector_gap_formula(abs(ov), eta)
        if gap < DEGENERACY_TOL:
            raise DegenerateGroundstateError(f"path degenerate at s={s}: gap {gap}")
        deriv = (len(path.states) - 1) * float(np.linalg.norm(b - ov * a))
        max_deriv = max(max_deriv, deriv)
        ratio = deriv / (gap * gap)
        if ratio > max_ratio:
            max_ratio, worst_s = ratio, s
    return ConditionReport(max_ratio=max_ratio, worst_s=worst_s, max_derivative_norm=max_deriv)


def perturbation_bound_pair(H: DenseHermitian, J: DenseHermitian) -> tuple[float, float]:
    """|<a(H)|a(J)>| and 1 - 4 ||H - J||^2 / gap^2 from each matrix's own eigh and an SVD norm;
    a degenerate groundstate raises DegenerateGroundstateError."""
    (valsH, vecsH), (valsJ, vecsJ) = np.linalg.eigh(H.entries), np.linalg.eigh(J.entries)
    gap = float(min(valsH[1] - valsH[0], valsJ[1] - valsJ[0]))
    if gap < DEGENERACY_TOL:
        raise DegenerateGroundstateError(f"groundstate degenerate: gap {gap:.3e} < tol {DEGENERACY_TOL:.3e}")
    lhs = abs(complex(np.vdot(vecsH[:, 0], vecsJ[:, 0])))
    return lhs, 1.0 - 4.0 * float(np.linalg.norm(H.entries - J.entries, 2)) ** 2 / gap**2


def stationary(P: np.ndarray) -> np.ndarray:
    """Left eigenvector of P for eigenvalue 1, via the null space of P^T - I."""
    P = np.asarray(P, dtype=float)
    _u, s, vh = np.linalg.svd(P.T - np.eye(P.shape[0]))
    null_dim = int(np.sum(s < 1e-9))
    if null_dim != 1:
        raise NotErgodicError(f"eigenvalue-1 multiplicity {max(null_dim, 1)} != 1")
    v = np.real(vh[-1])
    if v.sum() < 0:
        v = -v
    if np.any(v < -1e-9):
        raise NotErgodicError("stationary vector changes sign")
    v = np.clip(v, 0.0, None)
    return v / v.sum()


def oracle_chain(P) -> MarkovChain:
    """The chain with transition matrix P and the SVD's stationary distribution."""
    return MarkovChain(np.asarray(P, dtype=float), stationary(P))


def padded_chain_hamiltonian(M: MarkovChain) -> DenseHermitian:
    """H_M embedded in power-of-two dimension; padding coordinates sit at PAD_ENERGY."""
    N = M.N
    out = np.eye(1 << max(0, (N - 1).bit_length()), dtype=complex) * PAD_ENERGY
    out[:N, :N] = chain_hamiltonian(M)
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


def discrete_log(g: int, y: int, p: int) -> int:
    """Smallest x >= 1 with g^x = y mod p, one instance at a time."""
    x = 1
    acc = g % p
    while acc != y % p:
        acc = acc * g % p
        x += 1
        if x > p:
            raise ValueError("no discrete log found")
    return x


class Piece(NamedTuple):
    """Disjoint blocks, one per position of the index arrays: 1x1 blocks H[i, i] = v
    (real v) if `diagonal`, else 2x2 blocks [[0, v], [v*, 0]] on rows/columns {i, j}."""

    diagonal: bool
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray

    def norm(self) -> float:
        return float(np.max(np.abs(self.v), initial=0.0))


def pieces_of(dec: Decomposition) -> list[Piece]:
    """The pieces of `dec`, in order: its entry arrays sliced at `cuts`."""
    cuts = dec.cuts.tolist()
    return [Piece(a < dec.diagonal, dec.i[a:b], dec.j[a:b], dec.v[a:b].real if a < dec.diagonal else dec.v[a:b])
            for a, b in zip(cuts[:-1], cuts[1:])]


def piece_matrix(piece: Piece, N: int) -> DenseHermitian:
    """The N x N matrix of `piece`: its blocks, zero elsewhere."""
    m = np.zeros((N, N), dtype=complex)
    m[piece.j, piece.i] = np.conjugate(piece.v)
    m[piece.i, piece.j] = piece.v
    return DenseHermitian(m)


def piece_exponential(piece: Piece, t: float, state: np.ndarray) -> np.ndarray:
    """Apply e^{-i t piece} to a vector or to the columns of a matrix.

    A 1x1 block (i, v) contributes phase e^{-itv} on |i>; a 2x2 block (i, j, v)
    rotates within span{|i>, |j>}; identity elsewhere.
    """
    out = np.array(state, dtype=complex)
    i, j = piece.i, piece.j
    v = piece.v.reshape(piece.v.shape + (1,) * (out.ndim - 1))  # broadcast over a matrix's columns
    if piece.diagonal:
        out[i] = out[i] * np.exp(-1j * t * v)  # as trotter_step writes it; *= rounds a length-1 product differently
        return out
    a = np.abs(v)
    c, s = np.cos(a * t), np.sin(a * t)
    phase = v / a
    xi, xj = out[i], out[j]  # copies, so xi outlives the write to out[i]
    out[i] = c * xi - 1j * phase * s * xj
    out[j] = -1j * np.conjugate(phase) * s * xi + c * xj
    return out


def per_piece_trotter_step(dec: Decomposition, delta: float, state: np.ndarray) -> np.ndarray:
    """Symmetric product: forward over all pieces, then backward, one piece at a time."""
    pieces = pieces_of(dec)
    out = state
    for p in pieces:
        out = piece_exponential(p, delta, out)
    for p in reversed(pieces):
        out = piece_exponential(p, delta, out)
    return out
