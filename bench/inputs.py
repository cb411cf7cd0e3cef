"""Write the compare_exact inputs with hydet's canonical JSON writer.

    python bench/inputs.py SEED PER_MODEL OUT_DIR

OUT_DIR receives ``f1.json`` (per-fold F1 scores of three models, drawn from
SEED) and ``compare.json`` (a run config forcing the exact tests).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from hydet import jsonio


def f1_scores(seed: int, per_model: int) -> dict[str, list[float]]:
    """Scores on a 0.01 grid: two strong models with three perfect folds
    each and one weaker model, so the pooled samples carry ties."""
    rng = random.Random(seed)
    scores = {}
    for name, lo, hi, perfect in (("Decision Tree", 0.95, 1.0, 3),
                                  ("k-NN", 0.95, 1.0, 3),
                                  ("Naive Bayes", 0.80, 0.95, 0)):
        values = [round(rng.uniform(lo, hi), 2) for _ in range(per_model - perfect)]
        values += [1.0] * perfect
        rng.shuffle(values)
        scores[name] = values
    return scores


def main() -> int:
    seed, per_model, out = int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    jsonio.dump(f1_scores(seed, per_model), out / "f1.json")
    jsonio.dump({"stats": {"method": "exact"}}, out / "compare.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
