"""Output checks for the benchmark: the README quality contract, the corpus
corruption counts, and an independent exact KS/MWU oracle.

The oracle counts assignments by dynamic programming over pooled positions
instead of enumerating them, so it shares no code path with hydet.  Its
counts are exact integers and ``hits / comb(n, n1)`` is Python's correctly
rounded integer division, the same float hydet reports.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import combinations
from math import comb
from pathlib import Path

HYDRATE = "Hydrate"


def _layout(a: list[float], b: list[float]):
    pooled = sorted([(v, 1) for v in a] + [(v, 0) for v in b], key=lambda p: p[0])
    values = [v for v, _ in pooled]
    in_a = [m for _, m in pooled]
    ends = [i for i in range(len(values))
            if i == len(values) - 1 or values[i] != values[i + 1]]
    return in_a, ends


def _count(n: int, n1: int, step, start, accept) -> int:
    """Number of ways to place n1 'a' marks on n positions whose final state
    is accepted; ``step(state, position, is_a)`` folds one position in."""
    states = {(0, start): 1}
    for i in range(n):
        nxt: dict = defaultdict(int)
        for (na, st), ways in states.items():
            for is_a in (0, 1):
                k = na + is_a
                if k > n1 or (i + 1 - k) > n - n1:
                    continue
                nxt[(k, step(st, i, k, is_a))] += ways
        states = nxt
    return sum(w for (na, st), w in states.items() if na == n1 and accept(st))


def exact_ks_p(a: list[float], b: list[float]) -> float:
    """P(D* >= D) over all C(n, n1) assignments; D compared as the integer
    max |cA*n2 - cB*n1| at the ends of tied groups."""
    n1, n2 = len(a), len(b)
    n = n1 + n2
    in_a, ends = _layout(a, b)
    end_set = set(ends)

    def gap(i, k):
        return abs(k * n2 - (i + 1 - k) * n1)

    cum, m_obs = 0, 0
    for i in range(n):
        cum += in_a[i]
        if i in end_set:
            m_obs = max(m_obs, gap(i, cum))

    def step(hit, i, k, is_a):
        return hit or (i in end_set and gap(i, k) >= m_obs)

    return _count(n, n1, step, False, bool) / comb(n, n1)


def exact_mwu_p(a: list[float], b: list[float]) -> float:
    """P(|2U* - n1*n2| >= |2U - n1*n2|) with doubled midranks under ties."""
    n1, n2 = len(a), len(b)
    n = n1 + n2
    in_a, ends = _layout(a, b)
    mid2, start = [0] * n, 0
    for end in ends:
        for i in range(start, end + 1):
            mid2[i] = start + end + 2
        start = end + 1
    obs = abs(sum(m for m, x in zip(mid2, in_a) if x) - n1 * (n1 + 1) - n1 * n2)

    def step(total, i, k, is_a):
        return total + (mid2[i] if is_a else 0)

    return _count(n, n1, step, 0,
                  lambda total: abs(total - n1 * (n1 + 1) - n1 * n2) >= obs) / comb(n, n1)


def check_comparison(out: Path, f1: dict[str, list[float]],
                     recorded: dict[str, tuple[float, float]] | None) -> list[str]:
    """comparison.json p-values equal the oracle's (and the recorded ones)."""
    pairs = json.loads((out / "comparison.json").read_text(encoding="utf-8"))["pairs"]
    problems = []
    for name_a, name_b in combinations(f1, 2):
        key = f"{name_a} vs {name_b}"
        got = pairs.get(key)
        if got is None:
            problems.append(f"comparison.json lacks pair {key!r}")
            continue
        want = (exact_ks_p(f1[name_a], f1[name_b]), exact_mwu_p(f1[name_a], f1[name_b]))
        if recorded is not None and recorded.get(key) != want:
            problems.append(f"{key}: oracle p-values {want} differ from the "
                            f"recorded {recorded.get(key)}")
        if (got["ks_p"], got["u_p"]) != want:
            problems.append(f"{key}: p-values {(got['ks_p'], got['u_p'])} != exact {want}")
        if got["ks_method"] != "exact" or got["mwu_method"] != "exact":
            problems.append(f"{key}: methods {got['ks_method']}/{got['mwu_method']} "
                            "are not exact")
    return problems


def check_quality_contract(out: Path, models: list[str]) -> list[str]:
    """README contract: DT and k-NN reach accuracy >= 0.99 and hydrate F1 >=
    0.95; naive Bayes trails each of them by more than 0.05 macro-F1 and has
    the lowest hydrate F1."""
    reports = {m: json.loads((out / f"eval_{m}.json").read_text(encoding="utf-8"))
               for m in models}
    problems = []
    strong = [m for m in models if m != "nb"]
    for m in strong:
        r = reports[m]
        if r["accuracy"] < 0.99 or r["per_class"][HYDRATE]["f1"] < 0.95:
            problems.append(f"{m}: accuracy {r['accuracy']} / hydrate F1 "
                            f"{r['per_class'][HYDRATE]['f1']} below 0.99 / 0.95")
    if "nb" in reports:
        nb = reports["nb"]
        for m in strong:
            if nb["macro_f1"] > reports[m]["macro_f1"] - 0.05:
                problems.append(f"nb macro-F1 {nb['macro_f1']} does not trail {m} "
                                f"({reports[m]['macro_f1']}) by more than 0.05")
            if nb["per_class"][HYDRATE]["f1"] >= reports[m]["per_class"][HYDRATE]["f1"]:
                problems.append(f"nb hydrate F1 is not below {m}'s")
    return problems


def check_audit(out: Path, n_instances: int, length: int, n_channels: int,
                missing: float, frozen: float, outliers: float) -> list[str]:
    """The quality audit recovers the injected corruption: exact missing and
    frozen counts, and at least the injected outliers on every channel."""
    def rounded(fraction, population):
        return int(fraction * population + 0.5)

    report = json.loads((out / "quality_report.json").read_text(encoding="utf-8"))
    channels = report["channels"]
    problems = []
    n_missing = sum(c["n_missing"] for c in channels)
    want_missing = rounded(missing, n_instances * length * n_channels)
    if n_missing != want_missing:
        problems.append(f"audit found {n_missing} missing cells, injected {want_missing}")
    n_frozen = sum(c["n_frozen_instance_channels"] for c in channels)
    want_frozen = rounded(frozen, n_instances * n_channels)
    if n_frozen != want_frozen:
        problems.append(f"audit found {n_frozen} frozen channels, injected {want_frozen}")
    want_out = rounded(outliers, n_instances * length)
    for c in channels:
        if c["n_outliers"] < want_out:
            problems.append(f"{c['name']}: {c['n_outliers']} outliers < "
                            f"{want_out} injected")
    return problems
