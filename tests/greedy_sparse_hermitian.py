"""The greedy test-instance generator `qcore.random_sparse_hermitian` replaced, kept as the oracle.

It shuffles all N(N-1)/2 off-diagonal pairs in Python and accepts each with
probability 0.7 while both rows have a free slot: O(N^2) per draw.
"""
import numpy as np

from adiagen.qcore import DenseHermitian, spectral_norm


def greedy_sparse_hermitian(n: int, D: int, lam: float, seed: int) -> DenseHermitian:
    if D < 1 or lam <= 0:
        raise ValueError("need D >= 1 and lam > 0")
    N = 1 << n
    if D > N:
        raise ValueError(f"row sparsity D={D} infeasible for dim {N}")
    rng = np.random.default_rng(seed)
    H = np.zeros((N, N), dtype=complex)
    budget = np.full(N, D, dtype=int)

    # Diagonal entries cost one slot in a single row.
    for i in range(N):
        if budget[i] >= 1 and rng.random() < 0.5:
            H[i, i] = rng.normal()
            budget[i] -= 1

    # Off-diagonal: each candidate pair consumes a slot in both rows.
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    rng.shuffle(pairs)
    for i, j in pairs:
        if budget[i] >= 1 and budget[j] >= 1 and rng.random() < 0.7:
            v = rng.normal() + 1j * rng.normal()
            H[i, j] = v
            H[j, i] = v.conjugate()
            budget[i] -= 1
            budget[j] -= 1

    norm = spectral_norm(H)
    if norm > 0:
        H *= lam / norm
    return DenseHermitian(H)
