"""Seeded synthetic corpus generator.

Episodes are drawn from per-class regimes. Within an instance every channel
shares a latent series

    z_t = 0.6 * delta_i + 0.8 * w_t        (delta_i per instance, w_t per step)

so channels are genuinely cross-correlated and a conditional-independence
model is misspecified on this data. Channel values are

    x_t = base_t + loading * z_t + noise_sd * eps_t

with ``base_t`` interpolating linearly from ``start`` to ``end`` (a ramp;
stationary when ``end`` is None) and an optional hard clamp.

Default regime geometry
-----------------------
The defaults are tuned so the three classifiers separate the way they
typically do on correlated sensor data (threshold and neighborhood methods
near-perfect, independence-based scoring far behind and weakest on the rare
class):

* the normal regime is a thin diagonal cloud (strong shared latent);
* the rapid-loss ramp starts offset from the normal cloud *orthogonally to
  its latent axis*: each channel individually looks normal-ish there, but
  the joint point is far from the normal stripe, so axis-aligned Gaussian
  scoring absorbs the ramp head into the normal class while neighborhood
  and threshold methods do not;
* the ramp tail passes the hydrate cloud the same way: close in every
  marginal, separated jointly, so independence-based scoring leaks
  late-ramp rows into the hydrate class and sinks hydrate precision.

Corruption knobs inject exactly round(fraction * population) damaged cells:
missing cells, frozen instance-channels (constant stuck reading) and
per-channel high-side outliers guaranteed to sit strictly outside Tukey
fences of the clean pooled channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ConfigError
from ..rng import CounterRng
from .model import CANONICAL_VARIABLE_NAMES, ClassLabel, TimeSeriesInstance

_INSTANCE_LATENT_W = 0.6
_STEP_LATENT_W = 0.8


@dataclass(frozen=True)
class ChannelModel:
    """Generator parameters of one channel within a class regime."""

    start: float
    end: float | None = None
    latent_loading: float = 0.0
    noise_sd: float = 1.0
    clamp: tuple[float, float] | None = None

    def __post_init__(self):
        values = [self.start, self.latent_loading, self.noise_sd]
        if self.end is not None:
            values.append(self.end)
        if self.clamp is not None:
            values.extend(self.clamp)
        if not all(np.isfinite(v) for v in values):
            raise ConfigError("channel regime parameters must be finite")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")

    def base(self, length: int) -> np.ndarray:
        if self.end is None or length == 1:
            return np.full(length, self.start)
        return np.linspace(self.start, self.end, length)


@dataclass(frozen=True)
class SynthConfig:
    counts: Mapping[ClassLabel, int]
    length: int = 60
    regimes: Mapping[ClassLabel, Mapping[str, ChannelModel]] = field(
        default_factory=lambda: default_regimes())
    missing_fraction: float = 0.0
    frozen_fraction: float = 0.0
    outlier_fractions: Mapping[str, float] = field(default_factory=dict)
    epoch_start: int = 1_700_000_000

    def __post_init__(self):
        if any(c < 0 for c in self.counts.values()):
            raise ConfigError("instance counts must be >= 0")
        if sum(self.counts.values()) == 0:
            raise ConfigError("zero total instances requested")
        if self.length < 1:
            raise ConfigError("length must be >= 1")
        for name, frac in (("missing_fraction", self.missing_fraction),
                           ("frozen_fraction", self.frozen_fraction),
                           *((f"outlier_fractions[{k}]", v)
                             for k, v in self.outlier_fractions.items())):
            if not 0.0 <= frac < 1.0:
                raise ConfigError(f"{name} must be in [0,1), got {frac}")
        for label, count in self.counts.items():
            if count > 0 and label not in self.regimes:
                raise ConfigError(f"no regime configured for class {label.name}")
        for label, count in self.counts.items():
            if count > 0:
                absent = set(self.variables) - set(self.regimes[label])
                if absent:
                    raise ConfigError(f"regime {label.name} lacks channels "
                                      f"{sorted(absent)}")
        for var in self.outlier_fractions:
            if var not in self.variables:
                raise ConfigError(f"outlier fraction for unknown channel {var!r}")

    @property
    def variables(self) -> tuple[str, ...]:
        """Channel order: canonical names first, extras alphabetically.

        Independent of regime-dict key order, so a config that round-trips
        through sorted-key JSON generates an identical corpus. Every active
        regime must cover this union (enforced at construction).
        """
        names: set[str] = set()
        for regime in self.regimes.values():
            names.update(regime)
        ordered = [v for v in CANONICAL_VARIABLE_NAMES if v in names]
        ordered += sorted(names - set(CANONICAL_VARIABLE_NAMES))
        return tuple(ordered)


def default_regimes() -> dict[ClassLabel, dict[str, ChannelModel]]:
    """Tuned default regimes for the four canonical channels."""
    normal = {
        "P-TPT": ChannelModel(start=2.0e7, latent_loading=9.0e5, noise_sd=4.0e5),
        "T-TPT": ChannelModel(start=80.0, latent_loading=4.5, noise_sd=2.2),
        "P-MON-CKP": ChannelModel(start=1.7e7, latent_loading=6.5e5, noise_sd=3.0e5),
        "T-JUS-CKP": ChannelModel(start=42.0, latent_loading=4.4, noise_sd=2.1),
    }
    # head offset from the normal centre: +/- 1.9 total-sd per channel with
    # signs alternating against the latent axis (see module docstring)
    rapid_loss = {
        "P-TPT": ChannelModel(start=2.19e7, end=0.75e7,
                              latent_loading=2.5e5, noise_sd=1.5e5),
        "T-TPT": ChannelModel(start=70.5, end=2.0,
                              latent_loading=1.6, noise_sd=1.0),
        "P-MON-CKP": ChannelModel(start=1.563e7, end=1.43e7,
                                  latent_loading=2.0e5, noise_sd=1.2e5),
        "T-JUS-CKP": ChannelModel(start=51.3, end=16.0,
                                  latent_loading=1.6, noise_sd=1.0),
    }
    hydrate = {
        "P-TPT": ChannelModel(start=0.9e7, latent_loading=1.8e5, noise_sd=1.0e5),
        "T-TPT": ChannelModel(start=5.0, latent_loading=2.6, noise_sd=1.5,
                              clamp=(0.0, 50.0)),
        "P-MON-CKP": ChannelModel(start=1.5e7, latent_loading=4.0e5, noise_sd=3.0e5),
        "T-JUS-CKP": ChannelModel(start=22.0, latent_loading=2.6, noise_sd=1.5),
    }
    return {ClassLabel.NORMAL: normal,
            ClassLabel.RAPID_LOSS: rapid_loss,
            ClassLabel.HYDRATE: hydrate}


def default_config(n_normal: int = 597, n_rapid_loss: int = 344,
                   n_hydrate: int = 84, length: int = 60,
                   missing_fraction: float = 0.0,
                   frozen_fraction: float = 0.0,
                   outlier_fractions: Mapping[str, float] | None = None,
                   ) -> SynthConfig:
    """Corpus mirroring the real class ratio (597:344:84) by default."""
    return SynthConfig(
        counts={ClassLabel.NORMAL: n_normal,
                ClassLabel.RAPID_LOSS: n_rapid_loss,
                ClassLabel.HYDRATE: n_hydrate},
        length=length,
        missing_fraction=missing_fraction,
        frozen_fraction=frozen_fraction,
        outlier_fractions=dict(outlier_fractions or {}),
    )


def qc_probe_config(n_instances: int = 120, length: int = 50,
                    missing_fraction: float = 0.0,
                    frozen_fraction: float = 0.0,
                    outlier_fractions: Mapping[str, float] | None = None,
                    ) -> SynthConfig:
    """Single-regime corpus for exact quality-audit ground-truth checks.

    Every channel is clamped at mean +/- 2 total-sd. Quartiles of such a
    bounded column sit near +/- 0.67 sd, so Tukey fences (~ +/- 2.7 sd, and
    wider once high-side extremes shift the upper quartile) always contain
    the clean values: the only outliers a Tukey audit can flag are the
    injected ones, making recovered corruption counts exact rather than
    seed-lucky. Class mixtures do not have this guarantee (a minority
    cluster can sit outside the pooled fences), hence one regime.
    """
    base = {
        "P-TPT": (2.0e7, 9.0e5, 4.0e5),
        "T-TPT": (80.0, 4.5, 2.2),
        "P-MON-CKP": (1.7e7, 6.5e5, 3.0e5),
        "T-JUS-CKP": (42.0, 4.4, 2.1),
    }
    regime = {}
    for var, (center, loading, noise) in base.items():
        total_sd = float(np.hypot(loading, noise))
        regime[var] = ChannelModel(start=center, latent_loading=loading,
                                   noise_sd=noise,
                                   clamp=(center - 2.0 * total_sd,
                                          center + 2.0 * total_sd))
    return SynthConfig(
        counts={ClassLabel.NORMAL: n_instances},
        length=length,
        regimes={ClassLabel.NORMAL: regime},
        missing_fraction=missing_fraction,
        frozen_fraction=frozen_fraction,
        outlier_fractions=dict(outlier_fractions or {}),
    )


def _rounded(fraction: float, n: int) -> int:
    return int(np.floor(fraction * n + 0.5))


def synth_generate(config: SynthConfig, seed: int) -> list[TimeSeriesInstance]:
    """Generate the corpus; bit-identical for identical (config, seed)."""
    rng = CounterRng(seed)
    variables = config.variables
    n_ch = len(variables)
    length = config.length

    plan: list[tuple[ClassLabel, int]] = []
    for label in ClassLabel:
        for k in range(config.counts.get(label, 0)):
            plan.append((label, k))
    n_inst = len(plan)

    values = np.empty((n_inst, n_ch, length), dtype=np.float64)
    for i, (label, k) in enumerate(plan):
        inst_rng = rng.derive(1, int(label), k)
        delta = inst_rng.derive(0).normals(1)[0]
        w = inst_rng.derive(1).normals(length)
        z = _INSTANCE_LATENT_W * delta + _STEP_LATENT_W * w
        regime = config.regimes[label]
        for j, var in enumerate(variables):
            ch = regime[var]
            x = ch.base(length) + ch.latent_loading * z \
                + ch.noise_sd * inst_rng.derive(2 + j).normals(length)
            if ch.clamp is not None:
                np.clip(x, ch.clamp[0], ch.clamp[1], out=x)
            values[i, j] = x

    _inject_corruption(values, config, rng)

    timestamps = tuple(config.epoch_start + t for t in range(length))
    return [TimeSeriesInstance(instance_id=f"synth-{label.name.lower()}-{k:05d}",
                               label=label, timestamps=timestamps,
                               variable_names=variables, values=values[i].T)
            for i, (label, k) in enumerate(plan)]


def _inject_corruption(values: np.ndarray, config: SynthConfig,
                       rng: CounterRng) -> None:
    """In-place damage with exact rounded cell counts. Order matters:
    freeze channels, then outliers (outside frozen channels), then missing
    (outside outlier cells), so every injected count survives intact."""
    n_inst, n_ch, length = values.shape
    total_cells = n_inst * n_ch * length

    frozen_mask = np.zeros((n_inst, n_ch), dtype=bool)
    k_frozen = _rounded(config.frozen_fraction, n_inst * n_ch)
    if k_frozen:
        chosen = rng.derive(2).sample_indices(n_inst * n_ch, k_frozen)
        for c in chosen:
            i, j = divmod(int(c), n_ch)
            values[i, j, :] = values[i, j, 0]
            frozen_mask[i, j] = True

    outlier_mask = np.zeros(values.shape, dtype=bool)
    for j, var in enumerate(config.variables):
        frac = config.outlier_fractions.get(var, 0.0)
        k_out = _rounded(frac, n_inst * length)
        if not k_out:
            continue
        col = values[:, j, :]
        lo, hi = float(col.min()), float(col.max())
        spread = max(hi - lo, 1.0)
        eligible = np.flatnonzero(~np.repeat(frozen_mask[:, j], length))
        if k_out > len(eligible):
            raise ConfigError(f"channel {var!r}: outlier fraction {frac} "
                              "leaves too few unfrozen cells")
        ch_rng = rng.derive(3, j)
        picks = eligible[ch_rng.sample_indices(len(eligible), k_out)]
        # high-side extremes: strictly beyond any Tukey fence of the pooled
        # channel, whose upper fence is bounded by max + 1.5 * range
        magnitudes = hi + (5.0 + 5.0 * ch_rng.derive(1).uniforms(k_out)) * spread
        rows, ts = np.divmod(picks, length)
        values[rows, j, ts] = magnitudes
        outlier_mask[rows, j, ts] = True

    k_missing = _rounded(config.missing_fraction, total_cells)
    if k_missing:
        pool = np.flatnonzero(~outlier_mask)
        if k_missing > len(pool):
            raise ConfigError("missing_fraction leaves too few undamaged cells")
        picks = pool[rng.derive(4).sample_indices(len(pool), k_missing)]
        values.reshape(-1)[picks] = np.nan


def regimes_to_json(regimes: Mapping[ClassLabel, Mapping[str, ChannelModel]]) -> dict:
    out: dict = {}
    for label, channels in regimes.items():
        out[label.display_name] = {
            var: {
                "start": ch.start,
                "end": ch.end,
                "latent_loading": ch.latent_loading,
                "noise_sd": ch.noise_sd,
                "clamp": list(ch.clamp) if ch.clamp else None,
            }
            for var, ch in channels.items()
        }
    return out


def regimes_from_json(data: Mapping) -> dict[ClassLabel, dict[str, ChannelModel]]:
    out: dict[ClassLabel, dict[str, ChannelModel]] = {}
    for label_name, channels in data.items():
        label = ClassLabel.from_name(label_name)
        regime = {}
        for var, spec in channels.items():
            allowed = {"start", "end", "latent_loading", "noise_sd", "clamp"}
            unknown = set(spec) - allowed
            if unknown:
                raise ConfigError(f"regime {label_name}/{var}: unknown keys {sorted(unknown)}")
            clamp = spec.get("clamp")
            regime[var] = ChannelModel(
                start=float(spec["start"]),
                end=None if spec.get("end") is None else float(spec["end"]),
                latent_loading=float(spec.get("latent_loading", 0.0)),
                noise_sd=float(spec.get("noise_sd", 1.0)),
                clamp=None if clamp is None else (float(clamp[0]), float(clamp[1])),
            )
        out[label] = regime
    return out


def config_to_json(config: SynthConfig) -> dict:
    return {
        "counts": {label.display_name: int(config.counts.get(label, 0))
                   for label in ClassLabel},
        "length": config.length,
        "regimes": regimes_to_json(config.regimes),
        "missing_fraction": config.missing_fraction,
        "frozen_fraction": config.frozen_fraction,
        "outlier_fractions": dict(config.outlier_fractions),
        "epoch_start": config.epoch_start,
    }


def config_from_json(data: Mapping) -> SynthConfig:
    allowed = {"counts", "length", "regimes", "missing_fraction",
               "frozen_fraction", "outlier_fractions", "epoch_start"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"synth config: unknown keys {sorted(unknown)}")
    kwargs: dict = {}
    if "counts" not in data:
        raise ConfigError("synth config requires 'counts'")
    kwargs["counts"] = {ClassLabel.from_name(k): int(v)
                        for k, v in data["counts"].items()}
    if "regimes" in data:
        kwargs["regimes"] = regimes_from_json(data["regimes"])
    for key in ("length", "epoch_start"):
        if key in data:
            kwargs[key] = int(data[key])
    for key in ("missing_fraction", "frozen_fraction"):
        if key in data:
            kwargs[key] = float(data[key])
    if "outlier_fractions" in data:
        kwargs["outlier_fractions"] = {str(k): float(v)
                                       for k, v in data["outlier_fractions"].items()}
    return SynthConfig(**kwargs)
