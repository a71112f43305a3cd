"""Circuit output distributions, Qsamples, and statistical-difference deciders.

Contains the variation distance, the Hadamard-test based
decider for the statistical-difference promise problem, and toy-modulus
discrete-log and quadratic-residuosity reductions with brute-force referees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import StateVector, state_overlap

MAX_OUTPUT_BITS = 12


@dataclass(frozen=True, eq=False)
class ClassicalCircuit:
    """Deterministic map {0,1}^n -> {0,1}^m as its truth table: input x gives table[x]; bitstrings are ints."""

    n: int
    m: int
    table: np.ndarray

    def __post_init__(self):
        if self.n < 0 or not 1 <= self.m <= MAX_OUTPUT_BITS:
            raise ValueError(f"need n >= 0 and m in [1, {MAX_OUTPUT_BITS}], got n = {self.n}, m = {self.m}")
        table = np.asarray(self.table)
        if table.shape != (1 << self.n,):
            raise ValueError("truth table must have 2^n rows")
        if table.dtype.kind not in "iu" or np.any((table < 0) | (table >= 1 << self.m)):
            x, z = next((x, z) for x, z in enumerate(self.table) if isinstance(z, bool)
                        or not isinstance(z, (int, np.integer)) or not 0 <= z < 1 << self.m)
            raise ValueError(f"truth table entry {x} is {z}, not an integer in [0, {1 << self.m})")
        object.__setattr__(self, "table", table.astype(np.int64))


@dataclass(frozen=True)
class OutputDistribution:
    m: int
    counts: np.ndarray  # integer counts over 2^m outputs

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.counts.sum()


def distribution_of(C: ClassicalCircuit) -> OutputDistribution:
    """Exact output histogram over uniformly distributed inputs."""
    return OutputDistribution(m=C.m, counts=np.bincount(C.table, minlength=1 << C.m))


def qsample_exact(C: ClassicalCircuit) -> StateVector:
    """|C> = sum_z sqrt(D_C(z)) |z>, built directly (an exact CQS stand-in)."""
    dist = distribution_of(C)
    return StateVector.from_amplitudes(np.sqrt(dist.probabilities))


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


def sd_shots(delta: float) -> int:
    """Chernoff budget so a single batch misclassifies with probability <= delta."""
    half_gap = (SD_HIGH_THRESHOLD - SD_LOW_THRESHOLD) / 2
    return max(1, math.ceil(math.log(2.0 / delta) / (2.0 * half_gap**2)))


def sd_decider(v: StateVector, w: StateVector, delta: float, rng: np.random.Generator) -> str:
    """'yes' (far apart) or 'no' (close), via a batched Hadamard test on the Qsamples |C0>, |C1>.

    `v` and `w` are `qsample_exact(C0)` and `qsample_exact(C1)`, built once for
    all decisions on the pair.  Under the SD(3/4, 1/4) promise the error
    probability is at most delta.
    """
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

DLP_PROMISE_FRACTION = 1 / 6  # x in [1, cp] is low, x in [p/2 + 1, p/2 + cp] is high


def _uniform_support_state(support: np.ndarray, dim: int) -> StateVector:
    mask = np.zeros(dim, dtype=bool)
    mask[support] = True  # a repeated index counts once
    return StateVector.from_amplitudes(mask / math.sqrt(np.count_nonzero(mask)))


def dlp_window_sizes(p: int) -> tuple[int, int]:
    """Window exponent counts 2^(floor(log p) - 1) and 2^(floor(log p) - 3)."""
    lg = int(math.floor(math.log2(p)))
    return 1 << (lg - 1), 1 << (lg - 3)


@dataclass(frozen=True, eq=False)
class DLPFamily:
    """The fixed part of every discrete-log decision on (p, g), built once by `dlp_family`.

    `powers` is g^k mod p for k in [0, p); `mid` is the Qsample of the
    mid-window reference circuit, uniform on {g^(ceil(p/2)+1+i)} over
    2^(floor(log p)-1) exponents; `threshold` is the Hadamard-test frequency
    between the low window's 1/2 and the high window's worst (1 + ov_min)/2,
    ov_min = `dlp_min_high_overlap(p)`.
    """

    p: int
    g: int
    powers: np.ndarray
    mid: StateVector
    threshold: float

    def state(self, y: int) -> StateVector:
        """Qsample of C_{y, .}: uniform on {y g^i} over 2^(floor(log p)-3) exponents."""
        _, tp_size = dlp_window_sizes(self.p)
        return _uniform_support_state(self.powers[:tp_size] * (y % self.p) % self.p, self.mid.dim)


def dlp_family(p: int, g: int) -> DLPFamily:
    """Check that p is a prime and g generates Z_p^*, and build the family's fixed states once.

    Both supports are uniform since the exponent map is injective within a window.
    """
    if p > 1 << 16:
        raise ValueError(f"p = {p} too large for exhaustive construction")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    powers = _power_table(g, p)  # also gives is_generator's orbit check
    if not _orbit_is_full(powers, p):
        raise ValueError(f"g must generate Z_p^*, got g = {g} for p = {p}")
    t_size, _ = dlp_window_sizes(p)
    mid_base = pow(g, p // 2 + 1 + 1, p)  # g^(ceil(p/2)+1) for odd p
    mid = _uniform_support_state(powers[:t_size] * mid_base % p, 1 << (p - 1).bit_length())
    return DLPFamily(p=p, g=g, powers=powers, mid=mid, threshold=0.5 + dlp_min_high_overlap(p) / 4.0)


def dlp_min_high_overlap(p: int) -> float:
    """Worst-case overlap over the promised high window, from interval arithmetic."""
    t_size, tp_size = dlp_window_sizes(p)
    lo = p // 2 + 1 + 1
    worst = math.inf
    for x in (p // 2 + 1, p // 2 + int(DLP_PROMISE_FRACTION * p)):
        inter = max(0, min(x + tp_size, lo + t_size) - max(x, lo))  # |[x, x+tp) & [lo, lo+t)|
        worst = min(worst, inter / math.sqrt(t_size * tp_size))
    return worst


def dlp_logs(p: int, g: int) -> tuple[int, ...]:
    """The referee's log table, built once per (p, g): logs[y] is the smallest x >= 1 with
    g^x = y mod p, or 0 if there is none.

    One walk g, g^2, ... until it repeats, independent of the decider's power table.
    """
    logs = [0] * p
    acc, x = g % p, 1
    while not logs[acc]:
        logs[acc] = x
        acc = acc * g % p
        x += 1
    return tuple(logs)


def dlp_promise_holds(logs: tuple[int, ...], y: int) -> str | None:
    """Referee: 'low', 'high', or None when the promise is violated; `logs` is `dlp_logs(p, g)`."""
    p = len(logs)
    x = logs[y % p]
    if not x:
        raise ValueError("no discrete log found")
    if 1 <= x <= int(DLP_PROMISE_FRACTION * p):
        return "low"
    if p // 2 + 1 <= x <= p // 2 + int(DLP_PROMISE_FRACTION * p):
        return "high"
    return None


def dlp_decider(family: DLPFamily, y: int, shots: int, rng: np.random.Generator) -> str:
    """'low' or 'high' by a Hadamard test between the two window Qsamples.

    `family` is `dlp_family(p, g)`, built once for all decisions on (p, g).
    """
    freq = hadamard_test(family.mid, family.state(y), shots, rng)
    return "high" if freq > family.threshold else "low"


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


def _qr_state(nn: int, a: int) -> StateVector:
    """Qsample of C_a: r -> r^2 a mod nn, padded to a power-of-two dimension."""
    amps = np.zeros(1 << (nn - 1).bit_length(), dtype=complex)
    amps[:nn] = np.sqrt(qr_distribution(nn, a))
    return StateVector.from_amplitudes(amps)


def qr_nonresidue_max_overlap(nn: int) -> float:
    """max over non-residue units x of <C_x|C_1>, by exhaustive enumeration."""
    _check_qr_modulus(nn)
    amp1 = np.sqrt(qr_distribution(nn, 1))
    z = np.arange(nn)
    nonresidues = np.flatnonzero((np.gcd(z, nn) == 1) & (amp1 == 0))  # x is a square iff D_1[x] > 0
    return max((float(amp1 @ np.sqrt(qr_distribution(nn, int(x)))) for x in nonresidues),
               default=0.0)


@dataclass(frozen=True, eq=False)
class QRFamily:
    """The fixed part of every quadratic-residuosity decision modulo nn, built once by `qr_family`.

    `c1` is the Qsample of C_1; `threshold` is the Hadamard-test frequency
    between a residue's 1 and a non-residue's worst (1 + ov_max)/2, ov_max =
    `qr_nonresidue_max_overlap(nn)`.
    """

    nn: int
    c1: StateVector
    threshold: float

    def state(self, x: int) -> StateVector:
        """Qsample of C_x; x must be a unit."""
        if math.gcd(x, self.nn) != 1:
            raise ValueError("x must be a unit modulo nn")
        return _qr_state(self.nn, x)


def qr_family(nn: int) -> QRFamily:
    """Check that nn is a semiprime and build |C_1> and the threshold once."""
    _check_qr_modulus(nn)
    threshold = (1.0 + (1.0 + qr_nonresidue_max_overlap(nn)) / 2.0) / 2.0
    return QRFamily(nn=nn, c1=_qr_state(nn, 1), threshold=threshold)


def qr_decider(family: QRFamily, x: int, shots: int, rng: np.random.Generator) -> str:
    """'residue' or 'nonresidue' via a Hadamard test against C_1.

    `family` is `qr_family(nn)`, built once for all decisions modulo nn.
    """
    freq = hadamard_test(family.c1, family.state(x), shots, rng)
    return "residue" if freq > family.threshold else "nonresidue"
