"""Distribution-free two-sample tests: Kolmogorov-Smirnov and Mann-Whitney U.

Both tests come in an exact flavor (the null distribution over all C(n, n1)
assignments of the pooled multiset, correct under ties) and an asymptotic
flavor (Kolmogorov limit distribution; normal approximation with tie and
continuity correction). The exact flavor counts assignments instead of
enumerating them, walking the sorted pooled positions once: KS counts the
lattice paths that stay inside the observed D at every tied-group end
(Hodges 1958), and MWU counts assignments per doubled midrank sum (the Mann
and Whitney 1947 recursion). Counts are Python integers and the compared
statistics are integer-valued (D numerators over n1*n2; doubled midrank
sums), so p-values are exact count ratios with no float-comparison fuzz.

``method="auto"`` uses exact KS for pooled sizes up to 25 and the
tie-corrected asymptotic MWU with continuity correction, the combination
mainstream analysis toolchains report for tiny samples such as three
per-class F1 scores per model.

The standard normal tail is evaluated as p = erfc(|z|/sqrt(2)) via the C
library's erfc, a documented minimax rational approximation whose absolute
error is far below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyDataError, NonFiniteError

#: largest pooled size for which "auto" picks the exact KS method
EXACT_POOLED_LIMIT = 25


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest class, despite the domain name

    alpha: float = 0.05
    method: str = "auto"  # auto | exact | asymptotic

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.method not in ("auto", "exact", "asymptotic"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    method_used: str  # exact | asymptotic


@dataclass(frozen=True)
class MwuResult:
    u_statistic: float
    p_value: float
    z: float | None
    method_used: str  # exact | asymptotic-tie-corrected


def _validate_sample(sample: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyDataError(f"{what} is empty")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains non-finite values")
    return arr


def ecdf_eval(sample: Sequence[float], x: float) -> float:
    """Right-continuous empirical CDF: (# values <= x) / n."""
    arr = _validate_sample(sample, "sample ecdf")
    return float(np.count_nonzero(arr <= x)) / arr.size


# ---------------------------------------------------------------------------
# shared pooled-sample machinery


def _pooled_layout(a: np.ndarray, b: np.ndarray):
    """Sorted pooled values with group-end positions and integer statistics
    helpers. Returns (sorted pooled, membership-in-a sorted the same way,
    indices of the last position of each tied group)."""
    pooled = np.concatenate([a, b])
    in_a = np.concatenate([np.ones(a.size, dtype=np.int64),
                           np.zeros(b.size, dtype=np.int64)])
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    in_a = in_a[order]
    is_end = np.append(pooled[:-1] != pooled[1:], True)
    return pooled, in_a, np.flatnonzero(is_end)


def _ks_numerator(in_a: np.ndarray, group_ends: np.ndarray,
                  n1: int, n2: int) -> int:
    """max over distinct pooled values of |cA*n2 - cB*n1| (integer)."""
    cum_a = np.cumsum(in_a)[group_ends]
    cum_all = group_ends + 1
    return int(np.max(np.abs(cum_a * n2 - (cum_all - cum_a) * n1)))


def _doubled_midranks(group_ends: np.ndarray, n: int) -> np.ndarray:
    """2 * midrank per pooled position (integers)."""
    out = np.empty(n, dtype=np.int64)
    start = 0
    for end in group_ends:
        out[start:end + 1] = (start + 1) + (end + 1)  # 2 * (start+end+2)/2
        start = end + 1
    return out


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """D = sup_x |F_a(x) - F_b(x)| evaluated at pooled sample points."""
    a = _validate_sample(a, "sample a")
    b = _validate_sample(b, "sample b")
    _, in_a, ends = _pooled_layout(a, b)
    return _ks_numerator(in_a, ends, a.size, b.size) / (a.size * b.size)


def _kolmogorov_sf(lam: float) -> float:
    """Q(lambda) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2)."""
    if lam < 1e-9:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample(a: Sequence[float], b: Sequence[float],
                  config: TestConfig = TestConfig()) -> KsResult:
    a = _validate_sample(a, "sample a")
    b = _validate_sample(b, "sample b")
    n1, n2 = a.size, b.size
    n = n1 + n2
    _, in_a, ends = _pooled_layout(a, b)
    m_obs = _ks_numerator(in_a, ends, n1, n2)
    d = m_obs / (n1 * n2)

    use_exact = config.method == "exact" or (
        config.method == "auto" and n <= EXACT_POOLED_LIMIT)
    if use_exact:
        # inside[k]: paths over the positions so far that place k members of
        # a and have stayed below m_obs at every tied-group end
        inside = np.zeros(n1 + 1, dtype=object)
        inside[0] = 1
        k = np.arange(n1 + 1)
        for i in range(n):
            inside[1:] = inside[1:] + inside[:-1]
            if i in ends:
                inside[np.abs(k * n2 - (i + 1 - k) * n1) >= m_obs] = 0
        hits = math.comb(n, n1) - inside[n1]
        p = hits / math.comb(n, n1)
        return KsResult(statistic=d, p_value=min(max(p, 0.0), 1.0),
                        method_used="exact")

    lam = d * math.sqrt(n1 * n2 / n)
    return KsResult(statistic=d, p_value=_kolmogorov_sf(lam),
                    method_used="asymptotic")


# ---------------------------------------------------------------------------
# Mann-Whitney U


def mwu_two_sample(a: Sequence[float], b: Sequence[float],
                   config: TestConfig = TestConfig()) -> MwuResult:
    a = _validate_sample(a, "sample a")
    b = _validate_sample(b, "sample b")
    n1, n2 = a.size, b.size
    n = n1 + n2
    _, in_a, ends = _pooled_layout(a, b)
    mid2 = _doubled_midranks(ends, n)

    r1_doubled = int(np.sum(mid2[in_a == 1]))  # 2 * rank sum of sample a
    u_doubled = r1_doubled - n1 * (n1 + 1)     # 2 * U
    u = u_doubled / 2.0
    mu_doubled = n1 * n2                       # 2 * mu = n1*n2

    if config.method == "exact":
        obs_dev = abs(u_doubled - mu_doubled)
        # ways[k, s]: assignments of the positions so far that place k
        # members of a with doubled rank sum s
        ways = np.zeros((n1 + 1, int(mid2.sum()) + 1), dtype=object)
        ways[0, 0] = 1
        for m in mid2.tolist():
            ways[1:, m:] = ways[1:, m:] + ways[:-1, :-m]
        u_star = np.arange(ways.shape[1]) - n1 * (n1 + 1)
        hits = sum(ways[n1, np.abs(u_star - mu_doubled) >= obs_dev])
        p = hits / math.comb(n, n1)
        return MwuResult(u_statistic=u, p_value=min(max(p, 0.0), 1.0),
                         z=None, method_used="exact")

    # asymptotic, tie-corrected, with continuity correction
    group_sizes = np.diff(np.concatenate([[-1], ends]))
    tie_term = float(np.sum(group_sizes.astype(np.float64) ** 3 - group_sizes))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    mu = n1 * n2 / 2.0
    if sigma2 <= 0.0:
        return MwuResult(u_statistic=u, p_value=1.0, z=None,
                         method_used="asymptotic-tie-corrected")
    dev = u - mu
    z = (dev - 0.5 * math.copysign(1.0, dev)) / math.sqrt(sigma2) if dev != 0 else 0.0
    p = min(max(math.erfc(abs(z) / math.sqrt(2.0)), 0.0), 1.0)
    return MwuResult(u_statistic=u, p_value=p, z=z,
                     method_used="asymptotic-tie-corrected")


# ---------------------------------------------------------------------------
# pairwise model comparison


@dataclass(frozen=True)
class PairComparison:
    model_a: str
    model_b: str
    ks: KsResult
    mwu: MwuResult
    ks_significant: bool
    mwu_significant: bool

    @property
    def name(self) -> str:
        return f"{self.model_a} vs {self.model_b}"

    @property
    def significant(self) -> bool:
        return self.ks_significant or self.mwu_significant


@dataclass(frozen=True)
class ComparisonTable:
    alpha: float
    method: str
    pairs: tuple[PairComparison, ...]

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "method": self.method,
            "pairs": {
                pc.name: {
                    "ks_stat": pc.ks.statistic,
                    "ks_p": pc.ks.p_value,
                    "ks_method": pc.ks.method_used,
                    "ks_significant": pc.ks_significant,
                    "u_stat": pc.mwu.u_statistic,
                    "u_p": pc.mwu.p_value,
                    "z": pc.mwu.z,
                    "mwu_method": pc.mwu.method_used,
                    "mwu_significant": pc.mwu_significant,
                    "significant_at_alpha": pc.significant,
                }
                for pc in self.pairs
            },
        }

    def to_csv(self) -> str:
        from .jsonio import format_float
        lines = ["comparison,ks_stat,ks_p,u_stat,u_p,significant_at_alpha"]
        for pc in self.pairs:
            lines.append(",".join([
                pc.name,
                format_float(pc.ks.statistic), format_float(pc.ks.p_value),
                format_float(pc.mwu.u_statistic), format_float(pc.mwu.p_value),
                "true" if pc.significant else "false",
            ]))
        return "\n".join(lines) + "\n"


def compare_models(f1_vectors: Mapping[str, Sequence[float]],
                   config: TestConfig = TestConfig()) -> ComparisonTable:
    """All pairwise KS and MWU tests over per-model score vectors."""
    names = list(f1_vectors)
    if len(names) < 2:
        raise ValueError(f"need at least 2 models, got {len(names)}")
    lengths = {n: _validate_sample(f1_vectors[n], f"score vector of model {n!r}").size
               for n in names}
    if len(set(lengths.values())) != 1:
        raise ValueError("score vectors have mismatched lengths: " + ", ".join(
            f"{n!r} has {size}" for n, size in lengths.items()))

    pairs = []
    for name_a, name_b in combinations(names, 2):
        ks = ks_two_sample(f1_vectors[name_a], f1_vectors[name_b], config)
        mwu = mwu_two_sample(f1_vectors[name_a], f1_vectors[name_b], config)
        pairs.append(PairComparison(
            model_a=name_a, model_b=name_b, ks=ks, mwu=mwu,
            ks_significant=ks.p_value < config.alpha,
            mwu_significant=mwu.p_value < config.alpha,
        ))
    return ComparisonTable(alpha=config.alpha, method=config.method,
                           pairs=tuple(pairs))
