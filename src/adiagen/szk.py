"""Circuit output distributions, Qsamples, and statistical-difference deciders.

Contains the fidelity/variation-distance machinery, the Hadamard-test based
decider for the statistical-difference promise problem, and toy-modulus
discrete-log and quadratic-residuosity reductions with brute-force referees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qcore import StateVector, state_overlap

MAX_INPUT_BITS = 22
MAX_OUTPUT_BITS = 12


@dataclass(frozen=True)
class ClassicalCircuit:
    """Deterministic map {0,1}^n -> {0,1}^m; bitstrings carried as ints."""

    n: int
    m: int
    eval: Callable[[int], int]

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise ValueError("need n >= 0 and m >= 1")


def circuit_from_table(n: int, m: int, table: list[int]) -> ClassicalCircuit:
    if len(table) != 1 << n:
        raise ValueError("truth table must have 2^n rows")
    return ClassicalCircuit(n=n, m=m, eval=lambda x, _t=tuple(table): _t[x])


def parse_truth_table(text: str) -> ClassicalCircuit:
    """Lines 'input_bits output_bits' in binary, one per input."""
    rows = {}
    n = m = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        a, b = line.split()
        if n is None:
            n, m = len(a), len(b)
        if len(a) != n or len(b) != m:
            raise ValueError("ragged truth table")
        rows[int(a, 2)] = int(b, 2)
    if n is None or len(rows) != 1 << n:
        raise ValueError("incomplete truth table")
    return circuit_from_table(n, m, [rows[i] for i in range(1 << n)])


@dataclass(frozen=True)
class OutputDistribution:
    m: int
    counts: np.ndarray  # integer counts over 2^m outputs
    denominator: int

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.denominator


def distribution_of(C: ClassicalCircuit) -> OutputDistribution:
    """Exact output histogram over uniformly distributed inputs."""
    if C.n > MAX_INPUT_BITS:
        raise ValueError(f"n = {C.n} too large for exhaustive enumeration")
    counts = np.zeros(1 << C.m, dtype=np.int64)
    for x in range(1 << C.n):
        counts[C.eval(x)] += 1
    return OutputDistribution(m=C.m, counts=counts, denominator=1 << C.n)


def qsample_exact(C: ClassicalCircuit) -> StateVector:
    """|C> = sum_z sqrt(D_C(z)) |z>, built directly (an exact CQS stand-in)."""
    if C.m > MAX_OUTPUT_BITS:
        raise ValueError(f"m = {C.m} too large for a dense state")
    dist = distribution_of(C)
    return StateVector.from_amplitudes(np.sqrt(dist.probabilities), normalize=True)


def fidelity(p: OutputDistribution, q: OutputDistribution) -> float:
    if p.m != q.m:
        raise ValueError("dimension mismatch")
    return float(np.sum(np.sqrt(p.probabilities * q.probabilities)))


def variation(p: OutputDistribution, q: OutputDistribution) -> float:
    if p.m != q.m:
        raise ValueError("dimension mismatch")
    return 0.5 * float(np.sum(np.abs(p.probabilities - q.probabilities)))


def hadamard_test(v: StateVector, w: StateVector, shots: int,
                  rng: np.random.Generator) -> float:
    """Frequency of outcome 0 when measuring the flag of (|0,v> + |1,w>)/sqrt(2)."""
    if shots < 1:
        raise ValueError("need shots >= 1")
    p0 = (1.0 + state_overlap(v, w).real) / 2.0
    p0 = min(max(p0, 0.0), 1.0)
    return rng.binomial(shots, p0) / shots


# ---------------------------------------------------------------------------
# Statistical difference

SD_LOW_THRESHOLD = (1 + math.sqrt(1 - 0.75**2)) / 2  # <= 0.831 when variation >= 3/4
SD_HIGH_THRESHOLD = 7 / 8                            # >= 0.875 when variation <= 1/4
SD_MIDPOINT = (SD_LOW_THRESHOLD + SD_HIGH_THRESHOLD) / 2  # ~0.853


@dataclass(frozen=True)
class SDInstance:
    C0: ClassicalCircuit
    C1: ClassicalCircuit
    alpha: float = 0.75
    beta: float = 0.25

    def __post_init__(self):
        if not 0 <= self.beta < self.alpha <= 1:
            raise ValueError("need 0 <= beta < alpha <= 1")


def sd_promise_holds(inst: SDInstance) -> bool:
    d = variation(distribution_of(inst.C0), distribution_of(inst.C1))
    return d >= inst.alpha or d <= inst.beta


def sd_shots(delta: float) -> int:
    """Chernoff budget so a single batch misclassifies with probability <= delta."""
    half_gap = (SD_HIGH_THRESHOLD - SD_LOW_THRESHOLD) / 2
    return max(1, math.ceil(math.log(2.0 / delta) / (2.0 * half_gap**2)))


def sd_decider(C0: ClassicalCircuit, C1: ClassicalCircuit, delta: float,
               rng: np.random.Generator) -> str:
    """'yes' (far apart) or 'no' (close), via a batched Hadamard test.

    Under the SD(3/4, 1/4) promise the error probability is at most delta.
    """
    v, w = qsample_exact(C0), qsample_exact(C1)
    freq = hadamard_test(v, w, sd_shots(delta), rng)
    return "no" if freq > SD_MIDPOINT else "yes"


# ---------------------------------------------------------------------------
# Number theory helpers (brute force by design; referees must stay independent)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def _power_table(g: int, p: int) -> np.ndarray:
    """g^k mod p for k in [0, p), by doubling: P[m:2m] = P[:m] * g^m mod p."""
    powers = np.ones(max(p, 1), dtype=np.int64)
    m = 1
    while m < p:
        k = min(m, p - m)
        powers[m:m + k] = powers[:k] * pow(g, m, p) % p
        m += k
    return powers


def _orbit_is_full(powers: np.ndarray, p: int) -> bool:
    """Whether g^1, ..., g^(p-1) are p - 1 distinct values."""
    seen = np.zeros(powers.size, dtype=bool)
    seen[powers[1:]] = True
    return np.count_nonzero(seen) == p - 1


def is_generator(g: int, p: int) -> bool:
    return _orbit_is_full(_power_table(g, p), p)


def discrete_log(g: int, y: int, p: int) -> int:
    """Brute-force referee: smallest x >= 1 with g^x = y mod p."""
    x = 1
    acc = g % p
    while acc != y % p:
        acc = acc * g % p
        x += 1
        if x > p:
            raise ValueError("no discrete log found")
    return x


def units(nn: int) -> list[int]:
    return [x for x in range(1, nn) if math.gcd(x, nn) == 1]


def is_residue(x: int, nn: int) -> bool:
    """Brute-force referee for x R nn over units."""
    return any(y * y % nn == x % nn for y in range(nn))


def semiprime_factors(nn: int) -> tuple[int, int]:
    for p in range(3, int(math.isqrt(nn)) + 1, 2):
        if nn % p == 0:
            q = nn // p
            if p != q and is_prime(p) and is_prime(q) and p % 2 == 1 and q % 2 == 1:
                return p, q
            break
    raise ValueError(f"{nn} is not a product of two distinct odd primes")


# ---------------------------------------------------------------------------
# Discrete log promise problem


def _uniform_support_state(support: np.ndarray, dim: int) -> StateVector:
    mask = np.zeros(dim, dtype=bool)
    mask[support] = True  # a repeated index counts once
    return StateVector.from_amplitudes(mask / math.sqrt(np.count_nonzero(mask)), normalize=True)


def dlp_window_sizes(p: int) -> tuple[int, int]:
    """Window exponent counts 2^(floor(log p) - 1) and 2^(floor(log p) - 3)."""
    lg = int(math.floor(math.log2(p)))
    return 1 << (lg - 1), 1 << (lg - 3)


def dlp_states(p: int, g: int, y: int) -> tuple[StateVector, StateVector]:
    """Qsamples of the mid-window reference circuit and of C_{y, .}.

    Supports are {g^(ceil(p/2)+1+i)} over 2^(floor(log p)-1) exponents and
    {y g^i} over 2^(floor(log p)-3) exponents; both uniform since the
    exponent map is injective within a window.
    """
    if p > 1 << 16:
        raise ValueError("modulus too large for exhaustive construction")
    powers = _power_table(g, p)  # also gives is_generator's orbit check
    if not is_prime(p) or not _orbit_is_full(powers, p):
        raise ValueError("g must generate Z_p^*")
    t_size, tp_size = dlp_window_sizes(p)
    mid_base = pow(g, p // 2 + 1 + 1, p)  # g^(ceil(p/2)+1) for odd p
    mid_support = powers[:t_size] * mid_base % p
    low_support = powers[:tp_size] * (y % p) % p
    dim = 1 << (p - 1).bit_length()
    return _uniform_support_state(mid_support, dim), _uniform_support_state(low_support, dim)


def dlp_min_high_overlap(p: int, g: int, c: float = 1 / 6) -> float:
    """Worst-case overlap over the promised high window, from interval arithmetic."""
    t_size, tp_size = dlp_window_sizes(p)
    lo = p // 2 + 1 + 1
    worst = math.inf
    for x in (p // 2 + 1, p // 2 + int(c * p)):
        inter = max(0, min(x + tp_size, lo + t_size) - max(x, lo))  # |[x, x+tp) & [lo, lo+t)|
        worst = min(worst, inter / math.sqrt(t_size * tp_size))
    return worst


def dlp_promise_holds(p: int, g: int, y: int, c: float = 1 / 6) -> str | None:
    """Referee: 'low', 'high', or None when the promise is violated."""
    x = discrete_log(g, y, p)
    if 1 <= x <= int(c * p):
        return "low"
    if p // 2 + 1 <= x <= p // 2 + int(c * p):
        return "high"
    return None


def dlp_decider(p: int, g: int, y: int, shots: int, rng: np.random.Generator) -> str:
    """'low' or 'high' by a Hadamard test between the two window Qsamples."""
    v, w = dlp_states(p, g, y)
    ov_min = dlp_min_high_overlap(p, g)
    threshold = 0.5 + ov_min / 4.0  # midpoint of 1/2 and (1 + ov_min)/2
    freq = hadamard_test(v, w, shots, rng)
    return "high" if freq > threshold else "low"


# ---------------------------------------------------------------------------
# Quadratic residuosity


def qr_distribution(nn: int, a: int) -> np.ndarray:
    """Output distribution of r -> r^2 a mod nn over uniform r in Z_nn."""
    r = np.arange(nn, dtype=np.int64)
    return np.bincount(r * r % nn * (a % nn) % nn, minlength=nn) / nn


def _check_qr_modulus(nn: int) -> None:
    if nn > 1 << 16:
        raise ValueError("modulus too large for exhaustive construction")
    semiprime_factors(nn)


def qr_states(nn: int, x: int) -> tuple[StateVector, StateVector]:
    """Qsamples of C_1 and C_x for the squaring circuit modulo a semiprime."""
    _check_qr_modulus(nn)
    if math.gcd(x, nn) != 1:
        raise ValueError("x must be a unit modulo nn")
    dim = 1 << (nn - 1).bit_length()

    def state(a: int) -> StateVector:
        amps = np.zeros(dim, dtype=complex)
        amps[:nn] = np.sqrt(qr_distribution(nn, a))
        return StateVector.from_amplitudes(amps, normalize=True)

    return state(1), state(x)


def qr_nonresidue_max_overlap(nn: int) -> float:
    """max over non-residue units x of <C_x|C_1>, by exhaustive enumeration."""
    _check_qr_modulus(nn)
    amp1 = np.sqrt(qr_distribution(nn, 1))
    z = np.arange(nn)
    nonresidues = np.flatnonzero((np.gcd(z, nn) == 1) & (amp1 == 0))  # x is a square iff D_1[x] > 0
    return max((float(amp1 @ np.sqrt(qr_distribution(nn, int(x)))) for x in nonresidues),
               default=0.0)


def qr_decider(nn: int, x: int, shots: int, rng: np.random.Generator) -> str:
    """'residue' or 'nonresidue' via a Hadamard test against C_1."""
    c1, cx = qr_states(nn, x)
    ov_max = qr_nonresidue_max_overlap(nn)
    threshold = (1.0 + (1.0 + ov_max) / 2.0) / 2.0  # midpoint of 1 and (1+ov_max)/2
    freq = hadamard_test(c1, cx, shots, rng)
    return "residue" if freq > threshold else "nonresidue"
