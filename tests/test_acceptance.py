"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with `pytest tests/test_acceptance.py -v -s` to see them).
"""
import math

import numpy as np
import pytest

from adiagen import adiabatic, markov, sparseham, szk
from adiagen.qcore import (
    DenseHermitian,
    StateVector,
    ground_state,
    matrix_exponential,
    random_sparse_hermitian,
    spectral_gap,
    spectral_norm,
    state_overlap,
)
from dense_references import fidelity, path_hamiltonian, piece_matrix, pieces_of, stationary
from greedy_sparse_hermitian import greedy_sparse_hermitian

INV_SQRT2 = 1 / math.sqrt(2)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _decomposition_bounds(generator):
    """Criterion 01 on 50 instances drawn by `generator`: (max piece-count ratio, worst norm excess)."""
    rng = np.random.default_rng(1001)
    worst_excess = 0.0
    max_ratio = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        D = int(rng.integers(2, 7))
        H = generator(n, D, 1.0, int(rng.integers(1 << 31)))
        sh = sparseham.sparse_from_dense(H, D=D, lam=1.0)
        pieces = sparseham.decompose(sh)
        # decompose() itself raises unless the piece sum reconstructs H
        # entrywise exactly and every piece is block-disjoint; re-check the
        # reconstruction here so this test does not rely on that side effect.
        total = sum((piece_matrix(p, H.dim).entries for p in pieces_of(pieces)),
                    np.zeros((H.dim, H.dim), dtype=complex))
        assert np.array_equal(total, H.entries)
        max_ratio = max(max_ratio, len(pieces) / ((D + 1) ** 2 * n**6))
        norm_h = spectral_norm(H)
        for p in pieces_of(pieces):
            worst_excess = max(worst_excess, p.norm() - norm_h)
    return max_ratio, worst_excess


def test_01_decomposition_exactness():
    max_ratio, worst_excess = _decomposition_bounds(random_sparse_hermitian)
    ok = max_ratio <= 1.0 and worst_excess <= 1e-12
    report(1, "decomposition-exactness", ok,
           f"50 instances, count_ratio<={max_ratio:.3g}, norm_excess<={worst_excess:.3g}")


def test_01_bounds_hold_on_the_greedy_instances():
    """The same bounds on the instances of the greedy generator random_sparse_hermitian replaced."""
    max_ratio, worst_excess = _decomposition_bounds(greedy_sparse_hermitian)
    assert max_ratio <= 1.0 and worst_excess <= 1e-12


def test_02_trotter_error_law():
    H = random_sparse_hermitian(5, 4, 1.0, seed=42)
    sh = sparseham.sparse_from_dense(H, D=4, lam=1.0)
    pieces = sparseham.decompose(sh)
    exact = matrix_exponential(H, 1.0).entries
    deltas, errors = [], []
    steps = 2
    for _ in range(6):
        delta = 1.0 / (2 * steps)
        U = sparseham.trotter_unitary(pieces, delta, steps, H.dim)
        deltas.append(delta)
        errors.append(max(spectral_norm(U - exact), 1e-16))
        steps *= 2
    slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
    U = sparseham.simulate_sparse(sh, 1.0, 1e-3)
    achieved = spectral_norm(U - exact)
    ok = slope >= 0.9 and achieved <= 1e-3
    report(2, "trotter-error-law", ok,
           f"loglog slope={slope:.3f}, achieved_error={achieved:.3g} at alpha=1e-3")


def test_03_gap_formula_exactness():
    rng = np.random.default_rng(1003)
    worst = 0.0
    worst_min = 0.0
    for _ in range(100):
        a = StateVector.from_amplitudes(
            rng.normal(size=8) + 1j * rng.normal(size=8))
        b = StateVector.from_amplitudes(
            rng.normal(size=8) + 1j * rng.normal(size=8))
        eta = float(rng.uniform(0.02, 0.98))
        H = DenseHermitian(
            (1 - eta) * adiabatic.projector_hamiltonian(a).entries
            + eta * adiabatic.projector_hamiltonian(b).entries)
        ov = abs(state_overlap(a, b))
        worst = max(worst, abs(spectral_gap(H)
                               - adiabatic.two_projector_gap_formula(ov, eta)))
        etas = np.linspace(0.01, 0.99, 99)  # grid contains eta = 1/2
        grid_min = min(adiabatic.two_projector_gap_formula(ov, e) for e in etas)
        worst_min = max(worst_min, abs(grid_min - ov))
    ok = worst <= 1e-9 and worst_min <= 1e-9
    report(3, "gap-formula-exactness", ok,
           f"100 triples, worst formula dev={worst:.3g}, worst min dev={worst_min:.3g}")


def test_04_perturbation_inequality():
    rng = np.random.default_rng(1004)
    trials = violations = 0
    worst_margin = math.inf
    while trials < 200:
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        H = DenseHermitian((A + A.conj().T) / 2)
        P = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        P = (P + P.conj().T) / 2
        scale = float(rng.uniform(1e-4, 0.2)) / max(spectral_norm(P), 1e-12)
        J = DenseHermitian(H.entries + scale * P)
        try:
            lhs, rhs = adiabatic.groundstate_perturbation_bound(H, J)
        except Exception:
            continue  # degenerate draw, outside the promise
        trials += 1
        worst_margin = min(worst_margin, lhs - rhs)
        if lhs < rhs:
            violations += 1
    ok = violations == 0
    report(4, "perturbation-inequality", ok,
           f"200 pairs, violations={violations}, worst margin={worst_margin:.3g}")


def test_05_zeno_scaling():
    gates = adiabatic.GateSequence(n=2, gates=(("H", (0,)), ("X", (1,))))
    path = adiabatic.compile_circuit(gates, "00")
    Rs = [250, 500, 1000, 2000]
    fails, mc_ok = [], True
    shots = 10_000
    rng = np.random.default_rng(1005)
    for R in Rs:
        rep = adiabatic.zeno_evolve(path, R)
        fail = 1.0 - rep.success_probability
        fails.append(fail)
        wins = adiabatic.zeno_success_samples(rep.per_step_overlaps, shots, rng)
        p = rep.success_probability
        sigma = math.sqrt(p * (1 - p) / shots)
        if abs(wins / shots - p) > 3 * sigma:
            mc_ok = False
    C = float(np.mean([f * R for f, R in zip(fails, Rs)]))
    fit_ok = all(C / (2 * R) <= f <= 2 * C / R for f, R in zip(fails, Rs))
    ok = fit_ok and mc_ok
    report(5, "zeno-1-over-R-scaling", ok,
           f"failures={['%.2e' % f for f in fails]}, C={C:.3g}, mc within 3 sigma={mc_ok}")


def _random_circuit_3q(rng):
    n_gates = int(rng.integers(1, 7))
    gates = []
    for _ in range(n_gates):
        kind = ("H", "X", "CCX")[int(rng.integers(0, 3))]
        if kind == "CCX":
            qubits = tuple(int(q) for q in rng.permutation(3))
        else:
            qubits = (int(rng.integers(0, 3)),)
        gates.append((kind, qubits))
    x = "".join(str(int(b)) for b in rng.integers(0, 2, size=3))
    return adiabatic.GateSequence(n=3, gates=tuple(gates)), x


def test_06_circuit_to_adiabatic_equivalence():
    rng = np.random.default_rng(1006)
    min_overlap = min_gap = min_fid = math.inf
    for _ in range(10):
        gates, x = _random_circuit_3q(rng)
        doubled = adiabatic.expand_sqrt(gates)
        states = adiabatic.circuit_states(doubled, x)
        for a, b in zip(states, states[1:]):
            min_overlap = min(min_overlap, abs(state_overlap(a, b)))
        path = adiabatic.jagged_path(states)
        for s in np.linspace(0, 1, 101):
            min_gap = min(min_gap, spectral_gap(path_hamiltonian(path, float(s))))
        rep = adiabatic.zeno_evolve(path, 2000)
        target = adiabatic.simulate_circuit(gates, x)
        min_fid = min(min_fid, abs(state_overlap(rep.final_state, target)))
    ok = (min_overlap >= INV_SQRT2 - 1e-12
          and min_gap >= INV_SQRT2 - 1e-9
          and min_fid >= 0.99)
    report(6, "circuit-adiabatic-equivalence", ok,
           f"10 circuits, min overlap={min_overlap:.4f}, min gap={min_gap:.4f}, "
           f"min zeno fidelity={min_fid:.4f}")


def _random_reversible_chain(N, rng):
    w = rng.uniform(0.2, 2.0, size=N)
    neighbors = [[] for _ in range(N)]
    for i in range(1, N):
        j = int(rng.integers(0, i))
        neighbors[i].append(j)
        neighbors[j].append(i)
    for _ in range(N):
        i, j = (int(v) for v in rng.integers(0, N, size=2))
        if i != j and j not in neighbors[i]:
            neighbors[i].append(j)
            neighbors[j].append(i)
    return markov.metropolis_chain(w, neighbors)


def test_07_markov_correspondence():
    rng = np.random.default_rng(1007)
    worst_spec = worst_ground = 0.0
    for _ in range(50):
        N = int(rng.integers(2, 33))
        chain = _random_reversible_chain(N, rng)
        pi = stationary(chain.transition)
        H = DenseHermitian(markov.chain_hamiltonian(chain))
        hvals = np.sort(np.linalg.eigvalsh(H.entries))
        mvals = np.sort(1.0 - np.linalg.eigvals(chain.transition).real)
        worst_spec = max(worst_spec, float(np.max(np.abs(hvals - mvals))))
        _, g = ground_state(H)
        worst_ground = max(worst_ground, float(np.max(
            np.abs(np.abs(g.amplitudes) - np.sqrt(pi.pi)))))
    ok = worst_spec <= 1e-9 and worst_ground <= 1e-8
    report(7, "markov-correspondence", ok,
           f"50 chains, spectrum dev={worst_spec:.3g}, groundstate dev={worst_ground:.3g}")


def _matchings_pipeline(n, steps=20, ratio=0.7, R=500):
    removed = (0, 0)
    target = {(u, v) for u in range(n) for v in range(n)} - {removed}
    seed, space0 = markov.matchings_seed_qsample(n)
    _, p_perfect = markov.project_perfect(seed, space0)
    seq, space = markov.anneal_weights_sequence(n, target, steps, ratio)
    violations = markov.check_slowly_varying(seq)
    rep = markov.qsample_sequence(seq, seed, mode="zeno", R=R)
    target_state = markov.pi_state(stationary(seq.chains[-1].transition))
    fid = abs(state_overlap(rep.final_state, target_state))
    post, _ = markov.project_perfect(rep.final_state, space)
    tgt = [i for i in space.perfect_indices()
           if all(e in space.target_edges for e in space.states[i])]
    off_mass = 1.0 - float(np.sum(np.abs(post.amplitudes[tgt]) ** 2))
    # Condition further on the matching lying inside the target graph
    # (classically checkable from the measured matching).
    cond = np.zeros(post.dim, dtype=complex)
    cond[tgt] = post.amplitudes[tgt]
    cond = cond / np.linalg.norm(cond)
    uniform = np.zeros(post.dim, dtype=complex)
    uniform[tgt] = 1.0 / math.sqrt(len(tgt))
    uniform_dev = float(np.max(np.abs(np.abs(cond) - np.abs(uniform))))
    return p_perfect, not violations, fid, uniform_dev, off_mass


def test_08_matchings_pipeline():
    p2, sv2, fid2, dev2, off2 = _matchings_pipeline(2)
    lam_final = 0.7**20
    p3, sv3, fid3, dev3, off3 = _matchings_pipeline(3)
    ok = (abs(p2 - 0.2) <= 1e-9 and sv2 and fid2 >= 0.99
          and dev2 <= 1e-6 and off2 <= 2 * lam_final
          and sv3 and fid3 >= 0.99 and dev3 <= 1e-6 and off3 <= 2 * lam_final)
    report(8, "matchings-pipeline", ok,
           f"n=2 perfect prob={p2:.10f}, fid={fid2:.4f}, uniform dev={dev2:.2g}, "
           f"off mass={off2:.2g}; n=3 fid={fid3:.4f}, uniform dev={dev3:.2g}")


def test_09_sd_decider_thresholds():
    # Far pair at the promise edge: p = (7/8, 1/8) vs its swap, variation 3/4.
    far0 = szk.ClassicalCircuit(3, 1, [0] * 7 + [1])
    far1 = szk.ClassicalCircuit(3, 1, [1] * 7 + [0])
    # Close pair at the other edge: (1, 0) vs (3/4, 1/4), variation 1/4.
    close0 = szk.ClassicalCircuit(2, 1, [0, 0, 0, 0])
    close1 = szk.ClassicalCircuit(2, 1, [0, 0, 0, 1])
    d_far = szk.variation(szk.distribution_of(far0), szk.distribution_of(far1))
    d_close = szk.variation(szk.distribution_of(close0), szk.distribution_of(close1))
    assert d_far >= 0.75 and d_close <= 0.25
    shots = 10_000
    rng = np.random.default_rng(1009)
    freq_far = szk.hadamard_test(
        szk.qsample_exact(far0), szk.qsample_exact(far1), shots, rng)
    freq_close = szk.hadamard_test(
        szk.qsample_exact(close0), szk.qsample_exact(close1), shots, rng)
    sigma = math.sqrt(0.25 / shots)  # worst-case binomial sigma
    freq_ok = (freq_far <= 0.831 + 3 * sigma and freq_close >= 0.875 - 3 * sigma)
    far = szk.qsample_exact(far0), szk.qsample_exact(far1)
    close = szk.qsample_exact(close0), szk.qsample_exact(close1)
    errors = sum(szk.sd_decider(*far, 0.01, rng) != "yes" for _ in range(50))
    errors += sum(szk.sd_decider(*close, 0.01, rng) != "no" for _ in range(50))
    ok = freq_ok and errors <= 1
    report(9, "sd-decider-thresholds", ok,
           f"far freq={freq_far:.4f} (<=0.831+3s), close freq={freq_close:.4f} "
           f"(>=0.875-3s), decider errors={errors}/100")


def test_10_number_theoretic_deciders():
    rng = np.random.default_rng(1010)
    qr_mismatches = qr_total = 0
    for nn in (15, 21, 33):
        family = szk.qr_family(nn)
        for x in szk.units(nn):
            got = szk.qr_decider(family, x, 4000, rng)
            want = "residue" if szk.is_residue(x, nn) else "nonresidue"
            qr_total += 1
            qr_mismatches += got != want
    dlp_mismatches = 0
    c = 1 / 6
    for p, g in ((251, 6), (509, 2)):
        assert szk.is_generator(g, p)
        family = szk.dlp_family(p, g)
        logs = szk.dlp_logs(p, g)
        for _ in range(25):
            if rng.random() < 0.5:
                x = int(rng.integers(1, int(c * p) + 1))
            else:
                x = int(rng.integers(p // 2 + 1, p // 2 + int(c * p) + 1))
            y = pow(g, x, p)
            want = szk.dlp_promise_holds(logs, y)
            assert want is not None
            dlp_mismatches += szk.dlp_decider(family, y, 4000, rng) != want
    ok = qr_mismatches == 0 and dlp_mismatches == 0
    report(10, "number-theoretic-deciders", ok,
           f"qr {qr_total} units 0 mismatches={qr_mismatches == 0}, "
           f"dlp 50 instances mismatches={dlp_mismatches}")


def test_11_fidelity_variation_fact():
    rng = np.random.default_rng(1011)
    violations = 0
    for _ in range(500):
        p = rng.random(8)
        q = rng.random(8)
        p /= p.sum()
        q /= q.sum()
        F = float(np.sum(np.sqrt(p * q)))
        d = 0.5 * float(np.sum(np.abs(p - q)))
        if not (1 - F <= d + 1e-12 and d <= math.sqrt(max(0.0, 1 - F * F)) + 1e-12):
            violations += 1
    worst_overlap_dev = 0.0
    for _ in range(50):
        t0 = [int(rng.integers(0, 8)) for _ in range(32)]
        t1 = [int(rng.integers(0, 8)) for _ in range(32)]
        C0 = szk.ClassicalCircuit(5, 3, t0)
        C1 = szk.ClassicalCircuit(5, 3, t1)
        ov = state_overlap(szk.qsample_exact(C0), szk.qsample_exact(C1)).real
        F = fidelity(szk.distribution_of(C0), szk.distribution_of(C1))
        worst_overlap_dev = max(worst_overlap_dev, abs(ov - F))
    ok = violations == 0 and worst_overlap_dev <= 1e-12
    report(11, "fidelity-variation-fact", ok,
           f"500 pairs 0 violations={violations == 0}, "
           f"overlap=F dev<={worst_overlap_dev:.3g} on 50 circuit pairs")
