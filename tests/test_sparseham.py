"""Coloring decomposition and symmetric product-formula simulation."""
import functools
import math
from typing import NamedTuple

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
    ColoringError,
    InconsistentOracleError,
    SparseHamiltonian,
    decompose,
    simulate_sparse,
    sparse_from_dense,
    trotter_step,
    trotter_unitary,
)
from dense_references import Piece, per_piece_trotter_step, piece_exponential, piece_matrix, pieces_of
from greedy_sparse_hermitian import greedy_sparse_hermitian


# Random row-sparse instances of 1 to 3 qubits: (n, D, seed), D clamped to the dimension.
instances = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1)).map(
    lambda nds: random_sparse_hermitian(nds[0], min(nds[1], 1 << nds[0]), 1.0, nds[2]))


def _separating_modulus(i: int, j: int, n: int) -> int:
    for k in range(2, max(2, n * n) + 1):  # n = 1 still needs k = 2
        if i % k != j % k:
            return k
    raise ColoringError(f"no separating modulus in [2..{max(2, n * n)}] for ({i}, {j})")


class Color(NamedTuple):
    """Color 5-tuple: separating modulus, residues, and row/column positions."""

    k: int
    i_mod_k: int
    j_mod_k: int
    rindex: int  # 1-based position among row nonzeros; 0 for a zero entry
    cindex: int


def color_entry(H: SparseHamiltonian, i: int, j: int) -> Color:
    """Color of entry (i, j) by scanning rows i and j of the oracle; colors of mirror entries coincide."""
    if i > j:
        i, j = j, i
    n = H.n
    if i == j:
        k = 1
    else:
        k = _separating_modulus(i, j, n)

    def position(row: int, col: int) -> int:
        for pos, c in enumerate(sorted(H.j[H.i == row].tolist()), start=1):
            if c == col:
                return pos
        return 0

    rindex = position(i, j)
    # Column j of H mirrors row j by Hermiticity.
    cindex = position(j, i)
    return Color(k=k, i_mod_k=i % k, j_mod_k=j % k, rindex=rindex, cindex=cindex)


def row_scan_decomposition(H) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The grouping `decompose` replaced, as (cuts, i, j, v, diagonal): a `color_entry` row scan
    per upper-triangle entry, the entries sorted by color, row-major within a color."""
    groups = {}
    for i in range(H.dim):
        for j, v in sorted(zip(H.j[H.i == i].tolist(), H.v[H.i == i].tolist())):
            if j >= i:
                groups.setdefault(color_entry(H, i, j), []).append((i, j, v))
    by_color = sorted(groups.items())
    entries = [e for _, es in by_color for e in es]
    cuts = np.cumsum([0] + [len(es) for _, es in by_color])
    return (cuts, np.array([e[0] for e in entries], dtype=np.int64), np.array([e[1] for e in entries], dtype=np.int64),
            np.array([e[2] for e in entries], dtype=complex), sum(len(es) for c, es in by_color if c.k == 1))


def assert_decomposition(dec, want) -> None:
    """`dec` is (cuts, i, j, v, diagonal) = `want`, dtypes included."""
    for a, b in zip((dec.cuts, dec.i, dec.j, dec.v), want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert dec.diagonal == want[4]


def from_rows(n: int, rows, D: int) -> SparseHamiltonian:
    """The oracle whose row i lists the (column, value) entries rows[i], in that order."""
    i = np.array([r for r, row in enumerate(rows) for _ in row], dtype=np.int64)
    j = np.array([c for row in rows for c, _ in row], dtype=np.int64)
    v = np.array([x for row in rows for _, x in row], dtype=complex)
    return SparseHamiltonian(n, i, j, v, D=D, lam=1.0)


@st.composite
def oracles(draw):
    """Oracles of 1 to 7 qubits, D up to N, their triples shuffled and padded with explicit zeros."""
    n = draw(st.integers(1, 7))
    N = 1 << n
    m = random_sparse_hermitian(n, draw(st.integers(1, N)), 1.0, draw(st.integers(0, 2**32 - 1))).entries
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_rate = draw(st.sampled_from([0.0, 0.05, 0.5]))
    i, j = np.nonzero((m != 0) | (rng.random((N, N)) < zero_rate))
    order = rng.permutation(i.size)
    D = max(1, int(np.count_nonzero(m, axis=1).max()))
    return SparseHamiltonian(n, i[order], j[order], m[i, j][order], D=D, lam=1.0)


# name -> (rows of a 2x2 oracle, D, error): an InconsistentOracleError is raised when the
# oracle is built, a ColoringError by decompose.
BAD_ORACLES = {
    "too-many-nonzeros": ([[(0, 1.0), (1, 1.0)], [(0, 1.0)]], 1, InconsistentOracleError),
    "asymmetric": ([[(1, 1.0)], [(0, 2.0)]], 2, InconsistentOracleError),
    "slightly-asymmetric": ([[(1, 1.0)], [(0, 1.0 + 1e-9)]], 2, InconsistentOracleError),
    "missing-mirror": ([[(1, 1.0)], []], 2, InconsistentOracleError),
    "repeated-column": ([[(1, 1.0), (1, 1.0)], [(0, 1.0)]], 2, InconsistentOracleError),
    "repeated-diagonal": ([[(0, 1.0), (0, 2.0)], []], 2, InconsistentOracleError),
    "repeated-explicit-zero": ([[(1, 0.0), (1, 0.0)], []], 2, InconsistentOracleError),
    "column-outside": ([[(2, 1.0)], []], 2, InconsistentOracleError),
    "column-negative": ([[(-1, 1.0)], []], 2, InconsistentOracleError),
    "row-outside": ([[], [], [(0, 1.0)]], 2, InconsistentOracleError),
    "zero-outside": ([[(2, 0.0)], []], 2, InconsistentOracleError),
    # Within the 1e-12 symmetry tolerance, but not reconstructed exactly.
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
        assert pieces.diagonal == 4
        for p in pieces_of(pieces):
            assert p.diagonal
            assert np.array_equal(p.i, p.j)

    def test_exact_reconstruction_4x4(self):
        H = explicit_4x4()
        pieces = decompose(H)
        total = sum((piece_matrix(p, 4).entries for p in pieces_of(pieces)), np.zeros((4, 4), dtype=complex))
        assert np.array_equal(total, H.materialize().entries)

    def test_block_disjointness(self):
        H = sparse_from_dense(random_sparse_hermitian(3, 4, 1.0, seed=5))
        for p in pieces_of(decompose(H)):
            assert len(touched(p)) == len(set(touched(p)))

    def test_norm_domination(self):
        H = random_sparse_hermitian(4, 4, 1.0, seed=6)
        sh = sparse_from_dense(H)
        norm = spectral_norm(H)
        for p in pieces_of(decompose(sh)):
            assert p.norm() <= norm + 1e-12

    def test_piece_count_bound(self):
        for seed in range(5):
            n, D = 4, 3
            H = sparse_from_dense(random_sparse_hermitian(n, D, 1.0, seed=seed), D=D)
            assert len(decompose(H)) <= (D + 1) ** 2 * n**6

    @settings(max_examples=60, deadline=None)
    @given(oracles())
    def test_matches_row_scan_grouping(self, H):
        got = decompose(H)
        assert_decomposition(got, row_scan_decomposition(H))
        total = np.zeros((H.dim, H.dim), dtype=complex)  # the sum of the piece matrices, without N^2 per piece
        for p in pieces_of(got):
            total[p.i, p.j] += p.v
            if not p.diagonal:
                total[p.j, p.i] += np.conjugate(p.v)
        assert np.array_equal(total, H.materialize().entries)

    @pytest.mark.parametrize("rows, D, error", BAD_ORACLES.values(), ids=BAD_ORACLES.keys())
    def test_bad_oracle_rejected(self, rows, D, error):
        if error is InconsistentOracleError:
            with pytest.raises(error):
                from_rows(1, rows, D)
        else:
            H = from_rows(1, rows, D)
            with pytest.raises(error):
                decompose(H)

    def test_shared_block_index_rejected(self, monkeypatch):
        # With k = 2 for every pair, (0, 2) and (2, 4) get one color and share index 2.
        rows = [[(1, 1.0), (2, 1.0)], [(0, 1.0)], [(0, 1.0), (4, 1.0)], [], [(2, 1.0)], [], [], []]
        H = from_rows(3, rows, D=2)
        monkeypatch.setattr(sparseham, "_separating_moduli", lambda i, j, n: np.where(i == j, 1, 2))
        with pytest.raises(ColoringError, match="share indices"):
            decompose(H)

    def test_inconsistent_oracle_rejected(self):
        with pytest.raises(InconsistentOracleError, match="Hermitian"):
            SparseHamiltonian(1, np.array([0]), np.array([1]), np.array([1.0 + 0j]), D=2, lam=1.0)

    @pytest.mark.parametrize("i, j, v", [([0], [0, 1], [1.0, 1.0]), ([0.0], [0.0], [1.0]),
                                         ([[0]], [[0]], [[1.0]])])
    def test_malformed_triples_rejected(self, i, j, v):
        with pytest.raises(InconsistentOracleError, match="1-D integer arrays"):
            SparseHamiltonian(1, np.array(i), np.array(j), np.array(v), D=2, lam=1.0)

    def test_explicit_zeros_do_not_count_against_D(self):
        H = from_rows(1, [[(0, 1.0), (1, 0.0)], [(0, 0.0), (1, 2.0)]], D=1)
        assert (H.i.tolist(), H.j.tolist(), H.v.tolist()) == ([0, 1], [0, 1], [1.0, 2.0])
        assert np.array_equal(H.materialize().entries, np.diag([1.0, 2.0]))


class TestPieceExponential:
    def test_empty_piece_is_identity(self):
        none = np.array([], dtype=int)
        p = Piece(diagonal=True, i=none, j=none, v=np.array([]))
        v = np.array([0.6, 0.8], dtype=complex)
        assert np.array_equal(piece_exponential(p, 1.7, v), v)

    def test_diagonal_phase(self):
        p = Piece(diagonal=True, i=np.array([0]), j=np.array([0]), v=np.array([math.pi]))
        v = piece_exponential(p, 1.0, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
        assert v[0] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert v[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_off_diagonal_quarter_turn(self):
        p = Piece(diagonal=False, i=np.array([0]), j=np.array([1]), v=np.array([1.0 + 0j]))
        v = piece_exponential(p, math.pi / 2, np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(v, [0.0, -1j], atol=1e-12)

    def test_matches_2x2_eigendecomposition(self):
        # Oracle: exponentiate the dense 2x2 block directly.
        val = 0.3 - 0.4j
        p = Piece(diagonal=False, i=np.array([0]), j=np.array([1]), v=np.array([val]))
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
        for p in pieces_of(decompose(sparse_from_dense(H))):
            exact = matrix_exponential(piece_matrix(p, N), t).entries
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


# Random row-sparse instances of 1 to 6 qubits with D up to 6, decomposed.
decompositions = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1)).map(
    lambda nds: decompose(sparse_from_dense(random_sparse_hermitian(nds[0], min(nds[1], 1 << nds[0]), 1.0, nds[2]))))


def touched(p: Piece) -> list[int]:
    """The indices a piece acts on, with repeats."""
    return p.i.tolist() if p.diagonal else p.i.tolist() + p.j.tolist()


def layer_runs(dec) -> list[list[Piece]]:
    """The pieces of each layer of `dec`, in order: those whose first entry lies in the layer's range."""
    pieces, firsts = pieces_of(dec), dec.cuts[:-1].tolist()
    return [[p for p, e in zip(pieces, firsts) if a <= e < b] for a, b in zip(dec.layers[:-1], dec.layers[1:])]


class TestLayers:
    @settings(max_examples=60, deadline=None)
    @given(decompositions)
    def test_diagonal_entries_are_a_prefix_of_the_first_layer(self, dec):
        d = dec.diagonal
        assert np.all(dec.i[:d] == dec.j[:d]) and np.all(dec.i[d:] < dec.j[d:])
        assert d == 0 or d <= dec.layers[1]

    @settings(max_examples=60, deadline=None)
    @given(decompositions)
    def test_every_layer_offset_is_a_piece_cut(self, dec):
        layers = dec.layers
        assert layers[0] == 0 and layers[-1] == dec.v.size and np.all(np.diff(layers) > 0)
        assert np.all(np.isin(layers, dec.cuts))  # so no piece straddles two layers

    @settings(max_examples=60, deadline=None)
    @given(decompositions)
    def test_indices_within_a_layer_are_disjoint(self, dec):
        for run in layer_runs(dec):
            indices = [x for p in run for x in touched(p)]
            assert len(indices) == len(set(indices))

    @settings(max_examples=60, deadline=None)
    @given(decompositions)
    def test_layers_are_maximal_runs_of_the_pieces_in_order(self, dec):
        runs = layer_runs(dec)
        for run, following in zip(runs, runs[1:]):  # the next piece shares an index, so the run could not go on
            assert {x for p in run for x in touched(p)} & set(touched(following[0]))

    @settings(max_examples=60, deadline=None)
    @given(decompositions, st.floats(1e-3, 2.0), st.integers(0, 2**32 - 1))
    def test_layered_step_is_the_per_piece_product(self, dec, delta, seed):
        N = 1 + int(dec.j.max(initial=0))  # the state needs no more rows than the pieces touch; j >= i
        rng = np.random.default_rng(seed)
        for state in (np.eye(N, dtype=complex), rng.normal(size=N) + 1j * rng.normal(size=N)):
            assert np.array_equal(trotter_step(dec, delta, state), per_piece_trotter_step(dec, delta, state))

    def test_no_nonzeros_is_no_pieces_and_the_identity(self):
        dec = decompose(sparse_from_dense(DenseHermitian(np.zeros((4, 4)))))
        assert len(dec) == 0 and dec.layers.tolist() == [0]
        state = np.array([0.6, 0.8j, 0.0, 0.0])
        assert np.array_equal(trotter_step(dec, 0.3, state), state)
        assert np.array_equal(trotter_unitary(dec, 0.3, 3, 4), np.eye(4))

    def test_the_state_is_not_written(self):
        pieces = decompose(sparse_from_dense(random_sparse_hermitian(3, 4, 1.0, seed=8)))
        state = np.eye(8, dtype=complex)
        trotter_step(pieces, 0.1, state)
        assert np.array_equal(state, np.eye(8))

    def test_built_once_per_decomposition(self, monkeypatch):
        builds = []
        build = sparseham.build_layers
        monkeypatch.setattr(sparseham, "build_layers", lambda pieces: builds.append(1) or build(pieces))
        pieces = decompose(sparse_from_dense(random_sparse_hermitian(3, 4, 1.0, seed=8)))
        assert builds == []
        for _ in range(3):
            trotter_unitary(pieces, 0.05, 4, 8)
        assert builds == [1]

    def test_decompose_check_builds_no_layers(self, monkeypatch):
        def refuse(pieces):
            raise AssertionError("decompose-check built layers")
        monkeypatch.setattr(sparseham, "build_layers", refuse)
        assert cli.run({"command": "decompose-check", "seed": 1, "instances": 20}).ok


class TestSimulateSparse:
    def test_within_returns_its_measured_error(self):
        H = random_sparse_hermitian(4, 3, 1.0, seed=2)
        exact = matrix_exponential(H, 1.0).entries
        U, error = sparseham.trotter_within(decompose(sparse_from_dense(H)), exact, 1.0, 1e-4, 1.0)
        assert error == spectral_norm(U - exact) <= 1e-4

    def test_a_seed_past_the_float_range_exhausts_the_budget(self, monkeypatch):
        """lam^3 = 1e330 overflows a float; the seed is over the step budget by far, so no step count is tried."""
        monkeypatch.setattr(sparseham, "trotter_unitary", None)
        dec = decompose(sparse_from_dense(random_sparse_hermitian(2, 2, 1.0, seed=1)))
        with pytest.raises(sparseham.StepBudgetError):
            sparseham.trotter_within(dec, np.eye(4), 1e-106, 1e-3, 1e110)

    def test_a_small_seed_survives_an_overflowing_lam_cubed(self, monkeypatch):
        """lam^3 = 1e330 overflows a float while the seed, sqrt(M * 1e-7), is 1 step; it is taken from the logs."""
        tried = []
        monkeypatch.setattr(sparseham, "trotter_unitary",
                            lambda pieces, delta, steps, N: tried.append(steps) or np.eye(N))
        dec = decompose(sparse_from_dense(random_sparse_hermitian(2, 2, 1.0, seed=1)))
        sparseham.trotter_within(dec, np.eye(4), 1e-170, 1e-3, 1e110)
        assert tried == [1]

    @pytest.mark.parametrize("fraction", [0.5, 0.999, 1.5, 2.7])
    def test_the_seed_near_the_budget_is_the_error_term(self, fraction, monkeypatch):
        """Seeds up to a factor e over the budget are computed as before: tried when within it, refused when not."""
        tried = []
        monkeypatch.setattr(sparseham, "trotter_unitary",
                            lambda pieces, delta, steps, N: tried.append(steps) or np.eye(N))
        dec = decompose(sparse_from_dense(random_sparse_hermitian(2, 2, 1.0, seed=1)))
        M, alpha = len(dec), 1e-3
        t = fraction * sparseham.MAX_TROTTER_STEPS * math.sqrt(alpha / M)
        seed = math.ceil(math.sqrt(M * 1.0**3 * t**2 / alpha))
        if seed <= sparseham.MAX_TROTTER_STEPS:
            sparseham.trotter_within(dec, np.eye(4), t, alpha, 1.0)
            assert tried == [seed]
        else:
            with pytest.raises(sparseham.StepBudgetError):
                sparseham.trotter_within(dec, np.eye(4), t, alpha, 1.0)
            assert tried == []

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
        i, j = np.nonzero((m != 0) | (rng.random((N, N)) < 0.5))
        with_zeros = SparseHamiltonian(N.bit_length() - 1, i, j, m[i, j], D=N, lam=1.0)
        plain = sparse_from_dense(H, D=N, lam=1.0)
        want = row_scan_decomposition(plain)
        assert_decomposition(decompose(with_zeros), want)
        assert_decomposition(decompose(plain), want)
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


def row_loop_triples(m):
    """(i, j, v) lists of m's nonzeros, row by row, each row's columns ascending."""
    rows = [(i, np.flatnonzero(m[i])) for i in range(m.shape[0])]
    return ([i for i, nz in rows for _ in nz], [c for _, nz in rows for c in nz.tolist()],
            [x for i, nz in rows for x in m[i, nz].tolist()])


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
        """One np.nonzero gives the triples a flatnonzero loop over each row gives."""
        for _, H in decompose_check_draws(generator)[:100]:
            sh = sparse_from_dense(H)
            assert row_loop_triples(H.entries) == (sh.i.tolist(), sh.j.tolist(), sh.v.tolist())
            assert sh.D == max(np.count_nonzero(H.entries, axis=1).max(), 1)

    @settings(max_examples=60, deadline=None)
    @given(instances)
    def test_sparse_from_dense_rows(self, H):
        sh = sparse_from_dense(H)
        assert row_loop_triples(H.entries) == (sh.i.tolist(), sh.j.tolist(), sh.v.tolist())
