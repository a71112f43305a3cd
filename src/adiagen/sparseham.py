"""Coloring-based decomposition of row-sparse Hamiltonians into 2x2 blocks.

A row-sparse Hermitian operator is split into combinatorially block-diagonal
pieces (each piece a disjoint union of 1x1 and 2x2 blocks), each piece is
exponentiated exactly, and the pieces are recombined with a symmetric
forward-backward product to approximate the full evolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qcore import DenseHermitian, NumericalError, matrix_exponential, spectral_norm


class InconsistentOracleError(ValueError):
    """Row oracle violates Hermitian symmetry."""


class ColoringError(NumericalError, RuntimeError):
    """No separating modulus found for an off-diagonal entry (should be impossible)."""


class StepBudgetError(NumericalError, RuntimeError):
    """trotter_within ran out of Trotter steps before reaching the requested accuracy."""


MAX_TROTTER_STEPS = 1 << 20  # trotter_within's budget


@dataclass(frozen=True)
class SparseHamiltonian:
    """Hermitian operator on n qubits: row_fn(i) lists row i's (column, value) entries, in any order."""

    n: int
    row_fn: Callable[[int], list[tuple[int, complex]]]
    D: int
    lam: float  # spectral norm bound

    @property
    def dim(self) -> int:
        return 1 << self.n

    def materialize(self) -> DenseHermitian:
        N = self.dim
        H = np.zeros((N, N), dtype=complex)
        for i in range(N):
            row = self.row_fn(i)
            if len(row) > self.D:
                raise InconsistentOracleError(f"row {i} has {len(row)} > D={self.D} nonzeros")
            for j, v in row:
                H[i, j] = v
        if np.max(np.abs(H - H.conj().T)) > 1e-12:
            raise InconsistentOracleError("oracle rows are not Hermitian-consistent")
        return DenseHermitian(H)


def sparse_from_dense(H: DenseHermitian, D: int | None = None, lam: float | None = None) -> SparseHamiltonian:
    m = H.entries
    N = H.dim
    n = N.bit_length() - 1
    if 1 << n != N:
        raise ValueError("dimension must be a power of two")
    r, c = np.nonzero(m)  # row-major: each row's columns ascending
    counts = np.bincount(r, minlength=N)
    ends = np.cumsum(counts).tolist()
    entries = list(zip(c.tolist(), m[r, c].tolist()))
    rows = [entries[a:b] for a, b in zip([0] + ends[:-1], ends)]
    return SparseHamiltonian(
        n=n,
        row_fn=lambda i, _rows=rows: _rows[i],
        D=D if D is not None else max(int(counts.max()), 1),
        lam=lam if lam is not None else spectral_norm(H),
    )


@dataclass(frozen=True)
class EntryColor:
    """Color 5-tuple: separating modulus, residues, and row/column positions."""

    k: int
    i_mod_k: int
    j_mod_k: int
    rindex: int  # 1-based position among row nonzeros; 0 for a zero entry
    cindex: int


@dataclass(frozen=True, eq=False)
class BlockPiece:
    """Disjoint blocks of one color, one block per position of the index arrays.

    With color.k == 1 the blocks are 1x1, H[i, i] = values with i == j;
    otherwise each is the 2x2 block [[0, v], [v*, 0]] on rows/columns {i, j}, i < j.
    """

    color: EntryColor
    i: np.ndarray
    j: np.ndarray
    values: np.ndarray

    def norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def materialize(self, N: int) -> DenseHermitian:
        m = np.zeros((N, N), dtype=complex)
        m[self.j, self.i] = np.conjugate(self.values)
        m[self.i, self.j] = self.values
        return DenseHermitian(m)


def _separating_moduli(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Smallest k in [2, max(2, n^2)] with i != j mod k, for every pair (i, j) at once; 1 where i == j."""
    k = np.ones_like(i)
    left = np.flatnonzero(i != j)
    for m in range(2, max(2, n * n) + 1):
        if not left.size:
            break
        hit = (j[left] - i[left]) % m != 0
        k[left[hit]] = m
        left = left[~hit]
    if left.size:
        raise ColoringError(f"no separating modulus in [2..{max(2, n * n)}] for ({i[left[0]]}, {j[left[0]]})")
    return k


def decompose(H: SparseHamiltonian) -> list[BlockPiece]:
    """Exact split of H into 2x2 combinatorially block-diagonal pieces, in O(nnz).

    Each oracle row is read once, and the nonzeros are put in row-major order by
    one stable sort on the key i*N + j.  Entry e of the flat arrays (i, j, v)
    finds its mirror (j, i) by binary search on that key.  The pieces equal
    grouping the upper-triangle entries by their color (k, i mod k, j mod k, row
    position, column position), in sorted color order.
    """
    N, D = H.dim, H.D
    rows = [H.row_fn(r) for r in range(N)]  # one oracle call per row
    i = np.repeat(np.arange(N), [len(row) for row in rows])
    j = np.array([c for row in rows for c, _ in row], dtype=np.int64)
    v = np.array([x for row in rows for _, x in row], dtype=complex)
    nonzero = v != 0  # explicit zeros change neither the pieces nor their colors
    i, j, v = i[nonzero], j[nonzero], v[nonzero]
    if np.any((j < 0) | (j >= N)):
        raise InconsistentOracleError(f"column index outside [0, {N})")
    key = i * N + j
    order = np.argsort(key, kind="stable")  # rows in order, each sorted by column
    i, j, v, key = i[order], j[order], v[order], key[order]
    counts = np.bincount(i, minlength=N)
    if np.any(counts > D):
        r = int(np.argmax(counts > D))
        raise InconsistentOracleError(f"row {r} has {counts[r]} > D={D} nonzeros")
    if np.any(key[1:] == key[:-1]):
        raise InconsistentOracleError("a row lists the same column twice")
    position = np.arange(key.size) - (np.cumsum(counts) - counts)[i] + 1  # 1-based, within the row
    mirror_key = j * N + i
    m = np.minimum(np.searchsorted(key, mirror_key), max(key.size - 1, 0))
    has_mirror = key[m] == mirror_key
    if np.any(np.abs(v - np.conjugate(np.where(has_mirror, v[m], 0))) > 1e-12):
        raise InconsistentOracleError("oracle rows are not Hermitian-consistent")

    upper = j >= i  # upper triangle including diagonal; mirror comes for free
    rindex, cindex = position[upper], np.where(has_mirror, position[m], 0)[upper]
    iu, ju, vu = i[upper], j[upper], v[upper]
    k = _separating_moduli(iu, ju, H.n)
    colors = np.stack([k, iu % k, ju % k, rindex, cindex])
    order = np.lexsort(colors[::-1])  # stable: row-major within a color
    colors, iu, ju, vu = colors[:, order], iu[order], ju[order], vu[order]
    new_color = np.ones(iu.size, dtype=bool)
    new_color[1:] = np.any(colors[:, 1:] != colors[:, :-1], axis=0)
    bounds = np.append(np.flatnonzero(new_color), iu.size)
    group = np.cumsum(new_color) - 1
    off = colors[0] != 1

    touched = np.sort(np.concatenate((group * N + iu, (group * N + ju)[off])))
    shared = touched[1:][touched[1:] == touched[:-1]]
    if shared.size:
        color = EntryColor(*colors[:, bounds[shared.min() // N]].tolist())
        raise ColoringError(f"blocks of color {color} share indices")
    # The pieces' triples and their 2x2 mirrors must be exactly the oracle's.
    rec_key = np.concatenate((iu * N + ju, (ju * N + iu)[off]))
    rec_v = np.concatenate((np.where(off, vu, vu.real), np.conjugate(vu[off])))
    by_key = np.argsort(rec_key)
    if not (np.array_equal(rec_key[by_key], key) and np.array_equal(rec_v[by_key], v)):
        raise ColoringError("piece sum does not reconstruct H exactly")

    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        color = EntryColor(*colors[:, a].tolist())
        values = vu[a:b].real if color.k == 1 else vu[a:b]
        pieces.append(BlockPiece(color=color, i=iu[a:b], j=ju[a:b], values=values))
    return pieces


def piece_exponential(piece: BlockPiece, t: float, state: np.ndarray) -> np.ndarray:
    """Apply e^{-i t piece} to a vector or to the columns of a matrix.

    A 1x1 block (i, v) contributes phase e^{-itv} on |i>; a 2x2 block (i, j, v)
    rotates within span{|i>, |j>}; identity elsewhere.
    """
    out = np.array(state, dtype=complex)
    i, j = piece.i, piece.j
    v = piece.values.reshape(piece.values.shape + (1,) * (out.ndim - 1))  # broadcast over a matrix's columns
    if piece.color.k == 1:
        out[i] *= np.exp(-1j * t * v)
        return out
    a = np.abs(v)
    c, s = np.cos(a * t), np.sin(a * t)
    phase = v / a
    xi, xj = out[i], out[j]  # copies, so xi outlives the write to out[i]
    out[i] = c * xi - 1j * phase * s * xj
    out[j] = -1j * np.conjugate(phase) * s * xi + c * xj
    return out


def trotter_step(pieces: list[BlockPiece], delta: float, state: np.ndarray) -> np.ndarray:
    """Symmetric product: forward over all pieces, then backward."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    out = state
    for p in pieces:
        out = piece_exponential(p, delta, out)
    for p in reversed(pieces):
        out = piece_exponential(p, delta, out)
    return out


def trotter_unitary(pieces: list[BlockPiece], delta: float, steps: int, N: int) -> np.ndarray:
    """Dense matrix of (U_delta)^steps: one Trotter step on the identity columns, raised by repeated squaring."""
    return np.linalg.matrix_power(trotter_step(pieces, delta, np.eye(N, dtype=complex)), steps)


def trotter_within(pieces: list[BlockPiece], exact: np.ndarray, t: float, alpha: float,
                   lam: float) -> np.ndarray:
    """The first (U_delta)^steps within alpha of `exact` = e^{-itH} in operator norm, t > 0.

    The step count is seeded from the second-order error term M * lam^3 * t^2 / steps
    (M pieces, ||H|| <= lam), then doubled (delta halved, keeping t/2delta an
    integer so the symmetric product telescopes cleanly) until the check
    passes; the error contracts quadratically in delta.
    """
    M = max(len(pieces), 1)
    lam = max(lam, 1e-12)
    steps = max(1, math.ceil(math.sqrt(M * lam**3 * t**2 / alpha)))
    while steps <= MAX_TROTTER_STEPS:
        delta = t / (2 * steps)
        U = trotter_unitary(pieces, delta, steps, exact.shape[0])
        if spectral_norm(U - exact) <= alpha:
            return U
        steps *= 2
    raise StepBudgetError(f"step budget {MAX_TROTTER_STEPS} exhausted before reaching accuracy {alpha}")


def simulate_sparse(H: SparseHamiltonian, t: float, alpha: float) -> np.ndarray:
    """Dense approximation of e^{-itH} with operator-norm error <= alpha, checked against the exact exponential."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if t == 0:
        return np.eye(H.dim, dtype=complex)
    if t < 0:  # e^{+i|t|H} is the adjoint of e^{-i|t|H}, and so is its approximation
        return simulate_sparse(H, -t, alpha).conj().T
    pieces = decompose(H)
    return trotter_within(pieces, matrix_exponential(H.materialize(), t).entries, t, alpha, H.lam)
