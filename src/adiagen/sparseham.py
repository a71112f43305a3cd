"""Coloring-based decomposition of row-sparse Hamiltonians into 2x2 blocks.

A row-sparse Hermitian operator is split into combinatorially block-diagonal
pieces (each piece a disjoint union of 1x1 and 2x2 blocks), each piece is
exponentiated exactly, and the pieces are recombined with a symmetric
forward-backward product to approximate the full evolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .qcore import DenseHermitian, NumericalError, matrix_exponential, spectral_norm


class InconsistentOracleError(ValueError):
    """Row oracle violates Hermitian symmetry."""


class ColoringError(NumericalError, RuntimeError):
    """No separating modulus found for an off-diagonal entry (should be impossible)."""


class StepBudgetError(NumericalError, RuntimeError):
    """simulate_sparse ran out of Trotter steps before reaching the requested accuracy."""


@dataclass(frozen=True)
class RowOracle:
    """Function from row index to its sorted nonzero (column, value) list."""

    n: int
    row_fn: Callable[[int], list[tuple[int, complex]]]

    @property
    def dim(self) -> int:
        return 1 << self.n

    def row(self, i: int) -> list[tuple[int, complex]]:
        return sorted(self.row_fn(i), key=lambda cv: cv[0])


@dataclass(frozen=True)
class SparseHamiltonian:
    oracle: RowOracle
    D: int
    lam: float  # spectral norm bound

    @property
    def n(self) -> int:
        return self.oracle.n

    @property
    def dim(self) -> int:
        return self.oracle.dim

    def materialize(self) -> DenseHermitian:
        N = self.dim
        H = np.zeros((N, N), dtype=complex)
        for i in range(N):
            row = self.oracle.row(i)
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
    rows = []
    for i in range(N):
        nz = np.flatnonzero(m[i])
        rows.append(list(zip(nz.tolist(), m[i, nz].tolist())))
    actual_d = max((len(r) for r in rows), default=0)
    return SparseHamiltonian(
        oracle=RowOracle(n=n, row_fn=lambda i, _rows=rows: _rows[i]),
        D=D if D is not None else max(actual_d, 1),
        lam=lam if lam is not None else spectral_norm(H),
    )


def load_coo(path) -> DenseHermitian:
    """Read 'i j re im' lines; symmetric entries must both be present."""
    entries = {}
    max_idx = -1
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            i_s, j_s, re_s, im_s = line.split()
            i, j = int(i_s), int(j_s)
            entries[(i, j)] = complex(float(re_s), float(im_s))
            max_idx = max(max_idx, i, j)
    N = max_idx + 1
    H = np.zeros((N, N), dtype=complex)
    for (i, j), v in entries.items():
        H[i, j] = v
    if np.max(np.abs(H - H.conj().T)) > 1e-12:
        raise InconsistentOracleError("coordinate list is not Hermitian")
    return DenseHermitian(H)


def save_coo(H: DenseHermitian, path) -> None:
    with open(path, "w") as f:
        for i in range(H.dim):
            for j in range(H.dim):
                v = H.entries[i, j]
                if v != 0 or i == j == H.dim - 1:  # written even if zero: load_coo reads the dim off it
                    f.write(f"{i} {j} {float(v.real)!r} {float(v.imag)!r}\n")


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


def _separating_modulus(i: int, j: int, n: int) -> int:
    for k in range(2, max(2, n * n) + 1):  # n = 1 still needs k = 2
        if i % k != j % k:
            return k
    raise ColoringError(f"no separating modulus in [2..{max(2, n * n)}] for ({i}, {j})")


def color_entry(H: SparseHamiltonian, i: int, j: int) -> EntryColor:
    """Color of entry (i, j); colors of mirror entries coincide."""
    if i > j:
        i, j = j, i
    n = H.n
    if i == j:
        k = 1
    else:
        k = _separating_modulus(i, j, n)

    def position(row: int, col: int) -> int:
        for pos, (c, _v) in enumerate(H.oracle.row(row), start=1):
            if c == col:
                return pos
        return 0

    rindex = position(i, j)
    # Column j of H mirrors row j by Hermiticity.
    cindex = position(j, i)
    return EntryColor(k=k, i_mod_k=i % k, j_mod_k=j % k, rindex=rindex, cindex=cindex)


def decompose(H: SparseHamiltonian) -> list[BlockPiece]:
    """Exact split of H into 2x2 combinatorially block-diagonal pieces."""
    N = H.dim
    # Explicit zeros are dropped once here, so they change neither the pieces nor their colors.
    rows = [[(j, v) for j, v in H.oracle.row(i) if v != 0] for i in range(N)]
    H = replace(H, oracle=RowOracle(n=H.n, row_fn=lambda i, _rows=rows: _rows[i]))
    dense = H.materialize()  # also validates oracle symmetry
    groups: dict[EntryColor, list] = {}
    for i in range(N):
        for j, v in H.oracle.row(i):
            if j >= i:  # upper triangle including diagonal; mirror comes for free
                groups.setdefault(color_entry(H, i, j), []).append((i, j, v))

    pieces = []
    for color, entries in sorted(groups.items(), key=lambda kv: (
            kv[0].k, kv[0].i_mod_k, kv[0].j_mod_k, kv[0].rindex, kv[0].cindex)):
        i, j, v = zip(*entries)
        touched = i if color.k == 1 else i + j
        if len(set(touched)) < len(touched):
            raise ColoringError(f"blocks of color {color} share indices")
        values = np.real(v) if color.k == 1 else np.array(v, dtype=complex)
        pieces.append(BlockPiece(color=color, i=np.array(i), j=np.array(j), values=values))

    total = np.zeros((N, N), dtype=complex)
    for p in pieces:
        total[p.i, p.j] += p.values
        if p.color.k != 1:  # a 2x2 block's mirror entry; a 1x1 block has i == j
            total[p.j, p.i] += np.conjugate(p.values)
    if not np.array_equal(total, dense.entries):
        raise ColoringError("piece sum does not reconstruct H exactly")
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


def simulate_sparse(H: SparseHamiltonian, t: float, alpha: float,
                    max_steps: int = 1 << 20) -> np.ndarray:
    """Dense approximation of e^{-itH} with operator-norm error <= alpha.

    The step count is doubled (delta halved, keeping t/2delta an integer so
    the symmetric product telescopes cleanly) until a desk-scale check
    against the exact exponential passes; the error contracts quadratically
    in delta.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    N = H.dim
    if t == 0:
        return np.eye(N, dtype=complex)
    if t < 0:  # e^{+i|t|H} is the adjoint of e^{-i|t|H}, and so is its approximation
        return simulate_sparse(H, -t, alpha, max_steps).conj().T
    pieces = decompose(H)
    M = max(len(pieces), 1)
    lam = max(H.lam, 1e-12)
    exact = matrix_exponential(H.materialize(), t).entries
    # Seed the step count from the second-order error term M * lam^3 * t^2 / steps.
    steps = max(1, math.ceil(math.sqrt(M * lam**3 * abs(t) ** 2 / alpha)))
    while steps <= max_steps:
        delta = t / (2 * steps)
        U = trotter_unitary(pieces, delta, steps, N)
        if spectral_norm(U - exact) <= alpha:
            return U
        steps *= 2
    raise StepBudgetError(f"step budget {max_steps} exhausted before reaching accuracy {alpha}")
