"""Coloring decomposition and symmetric product-formula simulation."""
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiagen import cli, sparseham
from adiagen.qcore import (
    DenseHermitian,
    matrix_exponential,
    random_sparse_hermitian,
    spectral_norm,
)
from adiagen.sparseham import (
    BlockPiece,
    ColoringError,
    EntryColor,
    InconsistentOracleError,
    SparseHamiltonian,
    decompose,
    piece_exponential,
    simulate_sparse,
    sparse_from_dense,
    trotter_step,
    trotter_unitary,
)
from greedy_sparse_hermitian import greedy_sparse_hermitian


# Random row-sparse instances of 1 to 3 qubits: (n, D, seed), D clamped to the dimension.
instances = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1)).map(
    lambda nds: random_sparse_hermitian(nds[0], min(nds[1], 1 << nds[0]), 1.0, nds[2]))


def _separating_modulus(i: int, j: int, n: int) -> int:
    for k in range(2, max(2, n * n) + 1):  # n = 1 still needs k = 2
        if i % k != j % k:
            return k
    raise ColoringError(f"no separating modulus in [2..{max(2, n * n)}] for ({i}, {j})")


def color_entry(H: SparseHamiltonian, i: int, j: int) -> EntryColor:
    """Color of entry (i, j) by scanning rows i and j of the oracle; colors of mirror entries coincide."""
    if i > j:
        i, j = j, i
    n = H.n
    if i == j:
        k = 1
    else:
        k = _separating_modulus(i, j, n)

    def position(row: int, col: int) -> int:
        for pos, (c, _v) in enumerate(sorted(H.row_fn(row), key=lambda cv: cv[0]), start=1):
            if c == col:
                return pos
        return 0

    rindex = position(i, j)
    # Column j of H mirrors row j by Hermiticity.
    cindex = position(j, i)
    return EntryColor(k=k, i_mod_k=i % k, j_mod_k=j % k, rindex=rindex, cindex=cindex)


def row_scan_pieces(H):
    """The grouping `decompose` replaced: a `color_entry` row scan per upper-triangle entry.

    Colors come from `color_entry` on the oracle with its explicit zeros dropped.
    """
    rows = [sorted([(j, v) for j, v in H.row_fn(i) if v != 0], key=lambda cv: cv[0]) for i in range(H.dim)]
    H = replace(H, row_fn=lambda i: rows[i])
    groups = {}
    for i in range(H.dim):
        for j, v in rows[i]:
            if j >= i:
                groups.setdefault(color_entry(H, i, j), []).append((i, j, v))
    pieces = []
    for color, entries in sorted(groups.items(), key=lambda kv: (
            kv[0].k, kv[0].i_mod_k, kv[0].j_mod_k, kv[0].rindex, kv[0].cindex)):
        i, j, v = zip(*entries)
        values = np.real(v) if color.k == 1 else np.array(v, dtype=complex)
        pieces.append(BlockPiece(color=color, i=np.array(i), j=np.array(j), values=values))
    return pieces


@st.composite
def oracles(draw):
    """Row oracles of 1 to 7 qubits, D up to N, rows unsorted and padded with explicit zeros."""
    n = draw(st.integers(1, 7))
    N = 1 << n
    m = random_sparse_hermitian(n, draw(st.integers(1, N)), 1.0, draw(st.integers(0, 2**32 - 1))).entries
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_rate = draw(st.sampled_from([0.0, 0.05, 0.5]))
    rows = []
    for i in range(N):
        row = [(j, complex(m[i, j])) for j in range(N) if m[i, j] != 0 or rng.random() < zero_rate]
        rng.shuffle(row)
        rows.append(row)
    D = max(1, max(len(row) for row in rows))  # materialize counts the zeros against D
    return SparseHamiltonian(n, lambda i: rows[i], D=D, lam=1.0)


# name -> (rows of a 2x2 oracle, D, error decompose raises)
BAD_ORACLES = {
    "too-many-nonzeros": ([[(0, 1.0), (1, 1.0)], [(0, 1.0)]], 1, InconsistentOracleError),
    "asymmetric": ([[(1, 1.0)], [(0, 2.0)]], 2, InconsistentOracleError),
    "slightly-asymmetric": ([[(1, 1.0)], [(0, 1.0 + 1e-9)]], 2, InconsistentOracleError),
    "missing-mirror": ([[(1, 1.0)], []], 2, InconsistentOracleError),
    "repeated-column": ([[(1, 1.0), (1, 1.0)], [(0, 1.0)]], 2, InconsistentOracleError),
    "column-outside": ([[(2, 1.0)], []], 2, InconsistentOracleError),
    # Within materialize's 1e-12 symmetry tolerance, but not reconstructed exactly.
    "tiny-missing-mirror": ([[(1, 1e-13)], []], 2, ColoringError),
    "tiny-asymmetry": ([[(1, 1.0)], [(0, 1.0 + 1e-13)]], 2, ColoringError),
    "tiny-imaginary-diagonal": ([[(0, 1.0 + 1e-13j)], []], 2, ColoringError),
}


def explicit_4x4():
    """4x4 with 2 nonzeros per row: diagonal plus a (2,3) coupling."""
    H = np.zeros((4, 4), dtype=complex)
    H[0, 0] = 1.0
    H[1, 1] = -0.5
    H[2, 2] = 0.25
    H[2, 3] = 0.5 + 0.5j
    H[3, 2] = 0.5 - 0.5j
    return sparse_from_dense(DenseHermitian(H))


class TestColorEntry:
    def test_diagonal_rule(self):
        H = sparse_from_dense(DenseHermitian(np.diag(np.arange(1.0, 9.0))))
        c = color_entry(H, 5, 5)
        assert (c.k, c.i_mod_k, c.j_mod_k) == (1, 0, 0)

    def test_smallest_separating_modulus(self):
        c = color_entry(explicit_4x4(), 2, 3)
        assert (c.k, c.i_mod_k, c.j_mod_k) == (2, 0, 1)

    def test_rindex_by_hand(self):
        # Row 2 nonzeros sit at columns {2, 3}; entry (2,3) is the second.
        c = color_entry(explicit_4x4(), 2, 3)
        assert c.rindex == 2
        # Column index mirrors row 3, whose nonzeros are {2, 3}: (3,2) is first.
        assert c.cindex == 1

    def test_mirror_entries_share_color(self):
        H = explicit_4x4()
        assert color_entry(H, 2, 3) == color_entry(H, 3, 2)


class TestDecompose:
    def test_diagonal_pieces_only(self):
        H = sparse_from_dense(DenseHermitian(np.diag([1.0, 2.0, 3.0, 4.0])))
        pieces = decompose(H)
        for p in pieces:
            assert p.color.k == 1
            assert np.array_equal(p.i, p.j)

    def test_exact_reconstruction_4x4(self):
        H = explicit_4x4()
        pieces = decompose(H)
        total = sum((p.materialize(4).entries for p in pieces), np.zeros((4, 4), dtype=complex))
        assert np.array_equal(total, H.materialize().entries)

    def test_block_disjointness(self):
        H = sparse_from_dense(random_sparse_hermitian(3, 4, 1.0, seed=5))
        for p in decompose(H):
            touched = p.i.tolist() if p.color.k == 1 else p.i.tolist() + p.j.tolist()
            assert len(touched) == len(set(touched))

    def test_norm_domination(self):
        H = random_sparse_hermitian(4, 4, 1.0, seed=6)
        sh = sparse_from_dense(H)
        norm = spectral_norm(H)
        for p in decompose(sh):
            assert p.norm() <= norm + 1e-12

    def test_piece_count_bound(self):
        for seed in range(5):
            n, D = 4, 3
            H = sparse_from_dense(random_sparse_hermitian(n, D, 1.0, seed=seed), D=D)
            assert len(decompose(H)) <= (D + 1) ** 2 * n**6

    @settings(max_examples=60, deadline=None)
    @given(oracles())
    def test_matches_row_scan_grouping(self, H):
        got, want = decompose(H), row_scan_pieces(H)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert p.color == q.color
            for a, b in ((p.i, q.i), (p.j, q.j), (p.values, q.values)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        total = np.zeros((H.dim, H.dim), dtype=complex)  # the sum of p.materialize(N), without N^2 per piece
        for p in got:
            total[p.i, p.j] += p.values
            if p.color.k != 1:
                total[p.j, p.i] += np.conjugate(p.values)
        assert np.array_equal(total, H.materialize().entries)

    def test_one_oracle_call_per_row(self):
        H = sparse_from_dense(random_sparse_hermitian(5, 4, 1.0, seed=3))
        calls = []
        decompose(replace(H, row_fn=lambda i: calls.append(i) or H.row_fn(i)))
        assert sorted(calls) == list(range(H.dim))

    @pytest.mark.parametrize("rows, D, error", BAD_ORACLES.values(), ids=BAD_ORACLES.keys())
    def test_bad_oracle_rejected(self, rows, D, error):
        with pytest.raises(error):
            decompose(SparseHamiltonian(1, lambda i: rows[i], D=D, lam=1.0))

    def test_shared_block_index_rejected(self, monkeypatch):
        # With k = 2 for every pair, (0, 2) and (2, 4) get one color and share index 2.
        rows = {0: [(1, 1.0), (2, 1.0)], 1: [(0, 1.0)], 2: [(0, 1.0), (4, 1.0)], 4: [(2, 1.0)]}
        H = SparseHamiltonian(3, lambda i: rows.get(i, []), D=2, lam=1.0)
        monkeypatch.setattr(sparseham, "_separating_moduli", lambda i, j, n: np.where(i == j, 1, 2))
        with pytest.raises(ColoringError, match="share indices"):
            decompose(H)

    def test_inconsistent_oracle_rejected(self):
        rows = {0: [(1, 1.0 + 0j)], 1: []}
        bad = SparseHamiltonian(1, lambda i: rows[i], D=2, lam=1.0)
        with pytest.raises(InconsistentOracleError):
            bad.materialize()


class TestPieceExponential:
    def test_empty_piece_is_identity(self):
        none = np.array([], dtype=int)
        p = BlockPiece(color=EntryColor(1, 0, 0, 1, 1), i=none, j=none, values=np.array([]))
        v = np.array([0.6, 0.8], dtype=complex)
        assert np.array_equal(piece_exponential(p, 1.7, v), v)

    def test_diagonal_phase(self):
        p = BlockPiece(color=EntryColor(1, 0, 0, 1, 1), i=np.array([0]), j=np.array([0]),
                       values=np.array([math.pi]))
        v = piece_exponential(p, 1.0, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
        assert v[0] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert v[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_off_diagonal_quarter_turn(self):
        p = BlockPiece(color=EntryColor(2, 0, 1, 1, 1), i=np.array([0]), j=np.array([1]),
                       values=np.array([1.0 + 0j]))
        v = piece_exponential(p, math.pi / 2, np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(v, [0.0, -1j], atol=1e-12)

    def test_matches_2x2_eigendecomposition(self):
        # Oracle: exponentiate the dense 2x2 block directly.
        val = 0.3 - 0.4j
        p = BlockPiece(color=EntryColor(2, 0, 1, 1, 1), i=np.array([0]), j=np.array([1]),
                       values=np.array([val]))
        t = 0.9
        block = np.array([[0, val], [np.conjugate(val), 0]])
        vals, vecs = np.linalg.eigh(block)
        expU = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
        rng = np.random.default_rng(1)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.allclose(piece_exponential(p, t, v), expU @ v, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(instances, st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_matches_matrix_exponential(self, H, t, seed):
        N = H.dim
        rng = np.random.default_rng(seed)
        v = rng.normal(size=N) + 1j * rng.normal(size=N)
        for p in decompose(sparse_from_dense(H)):
            exact = matrix_exponential(p.materialize(N), t).entries
            assert np.max(np.abs(piece_exponential(p, t, v) - exact @ v)) < 1e-12
            assert np.max(np.abs(piece_exponential(p, t, np.eye(N, dtype=complex)) - exact)) < 1e-12


class TestTrotterStep:
    def test_single_piece_collapses(self):
        H = random_sparse_hermitian(2, 1, 1.0, seed=3)
        # Keep the diagonal only so everything lands in one color class.
        Hd = DenseHermitian(np.diag(np.diag(H.entries)))
        pieces = decompose(sparse_from_dense(Hd))
        delta = 0.37
        got = trotter_unitary(pieces, delta, 1, 4)
        exact = matrix_exponential(Hd, 2 * delta).entries
        assert np.max(np.abs(got - exact)) < 1e-12

    def test_commuting_pieces_exact(self):
        H = DenseHermitian(np.diag([0.3, -1.2, 0.8, 0.1]))
        pieces = decompose(sparse_from_dense(H))
        got = trotter_unitary(pieces, 0.21, 1, 4)
        exact = matrix_exponential(H, 0.42).entries
        assert np.max(np.abs(got - exact)) < 1e-12

    def test_noncommuting_third_order_per_step(self):
        H = random_sparse_hermitian(3, 4, 1.0, seed=8)
        pieces = decompose(sparse_from_dense(H))
        errors = []
        deltas = [0.1, 0.05, 0.025, 0.0125]
        for d in deltas:
            got = trotter_step(pieces, d, np.eye(8, dtype=complex))
            errors.append(spectral_norm(got - matrix_exponential(H, 2 * d).entries))
        slopes = np.diff(np.log(errors)) / np.diff(np.log(deltas))
        assert np.all(slopes > 2.5)

    @pytest.mark.parametrize("steps", [1, 2, 5, 8])
    def test_unitary_is_repeated_steps(self, steps):
        pieces = decompose(sparse_from_dense(random_sparse_hermitian(3, 4, 1.0, seed=8)))
        U = np.eye(8, dtype=complex)
        for _ in range(steps):
            U = trotter_step(pieces, 0.05, U)
        assert np.max(np.abs(trotter_unitary(pieces, 0.05, steps, 8) - U)) < 1e-12

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            trotter_step([], 0.0, np.eye(2, dtype=complex))


class TestSimulateSparse:
    def test_time_zero(self):
        H = sparse_from_dense(random_sparse_hermitian(2, 2, 1.0, seed=1))
        assert np.array_equal(simulate_sparse(H, 0.0, 1e-3), np.eye(4))

    def test_diagonal_exact(self):
        H = DenseHermitian(np.diag([1.0, -2.0, 0.5, 3.0]))
        U = simulate_sparse(sparse_from_dense(H), 1.0, 1e-6)
        assert spectral_norm(U - matrix_exponential(H, 1.0).entries) < 1e-12

    def test_meets_requested_accuracy(self):
        H = random_sparse_hermitian(5, 4, 1.0, seed=42)
        sh = sparse_from_dense(H, D=4, lam=1.0)
        U = simulate_sparse(sh, 1.0, 1e-3)
        assert spectral_norm(U - matrix_exponential(H, 1.0).entries) <= 1e-3

    def test_one_qubit_pauli_x(self):
        X = DenseHermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        U = simulate_sparse(sparse_from_dense(X), 1.0, 1e-3)
        assert spectral_norm(U - matrix_exponential(X, 1.0).entries) <= 1e-3

    @settings(max_examples=25, deadline=None)
    @given(instances, st.floats(0.1, 2.0))
    def test_negative_time_is_the_inverse_evolution(self, H, t):
        U = simulate_sparse(sparse_from_dense(H), -t, 1e-3)
        assert spectral_norm(U - matrix_exponential(H, -t).entries) <= 1e-3

    @settings(max_examples=25, deadline=None)
    @given(instances, st.floats(0.1, 2.0), st.integers(0, 2**32 - 1))
    def test_explicit_zeros_have_no_effect(self, H, t, seed):
        rng = np.random.default_rng(seed)
        m, N = H.entries, H.dim
        rows = [[(j, complex(m[i, j])) for j in range(N) if m[i, j] != 0 or rng.random() < 0.5]
                for i in range(N)]
        with_zeros = SparseHamiltonian(N.bit_length() - 1, lambda i: rows[i], D=N, lam=1.0)
        plain = sparse_from_dense(H, D=N, lam=1.0)
        got, want = decompose(with_zeros), decompose(plain)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert p.color == q.color
            assert all(np.array_equal(a, b) for a, b in ((p.i, q.i), (p.j, q.j), (p.values, q.values)))
        U = simulate_sparse(with_zeros, t, 1e-3)
        assert np.array_equal(U, simulate_sparse(plain, t, 1e-3))
        assert spectral_norm(U - matrix_exponential(H, t).entries) <= 1e-3


@functools.cache
def decompose_check_draws(generator):
    """The 250 (D, H) that `decompose-check` draws at seed 1, drawn by `generator`."""
    rng = cli.sub_rng(1, "decompose-instances")
    draws = []
    for _ in range(250):
        n, D = int(rng.integers(3, 7)), int(rng.integers(2, 7))
        draws.append((D, generator(n, D, 1.0, int(rng.integers(1 << 31)))))
    return tuple(draws)


class TestInstances:
    def test_as_heavy_as_the_greedy_generator(self):
        """Nonzeros per row and the decompose-check pieces, over its 250 seed-1 draws, within 2% of the greedy's."""
        def fill_and_pieces(generator):
            draws = decompose_check_draws(generator)
            nnz = sum(np.count_nonzero(H.entries) for _, H in draws)
            rows = sum(H.dim for _, H in draws)
            pieces = sum(len(decompose(sparse_from_dense(H, D=D, lam=1.0))) for D, H in draws)
            return nnz / rows, pieces

        (fill, pieces), (greedy_fill, greedy_pieces) = map(
            fill_and_pieces, (random_sparse_hermitian, greedy_sparse_hermitian))
        assert (round(greedy_fill, 3), greedy_pieces) == (3.865, 9707)
        assert abs(fill / greedy_fill - 1) <= 0.02
        assert abs(pieces / greedy_pieces - 1) <= 0.02

    @pytest.mark.parametrize("generator", [random_sparse_hermitian, greedy_sparse_hermitian])
    def test_sparse_from_dense_matches_the_row_loop(self, generator):
        """One np.nonzero split by row counts gives the rows a flatnonzero loop over each row gives."""
        for _, H in decompose_check_draws(generator)[:100]:
            sh = sparse_from_dense(H)
            m = H.entries
            for i in range(H.dim):
                nz = np.flatnonzero(m[i])
                assert sh.row_fn(i) == list(zip(nz.tolist(), m[i, nz].tolist()))
            assert sh.D == max(np.count_nonzero(m, axis=1).max(), 1)

    @settings(max_examples=60, deadline=None)
    @given(instances)
    def test_sparse_from_dense_rows(self, H):
        sh = sparse_from_dense(H)
        for i in range(H.dim):
            nz = np.flatnonzero(H.entries[i])
            assert sh.row_fn(i) == list(zip(nz.tolist(), H.entries[i, nz].tolist()))
