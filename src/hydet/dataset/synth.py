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

Draws
-----
Instance k of a class owns the streams ``derive(1, label, k).derive(s)``:
``delta`` (s = 0), ``w`` (s = 1) and the noise of channel j (s = 2 + j).
The generator draws them for a block of instances at once. Batching cannot
change a value: a draw is a pure function of its stream key and counter
(see :mod:`hydet.rng`), and every later step is elementwise, so an instance's
values are the same whichever block it lands in. The block size only bounds
the temporaries of one draw.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..declarations import ChannelModel, ClassLabel, SynthConfig, default_regimes
from ..errors import ConfigError
from ..rng import CounterRng, block_normals
from .model import TimeSeriesInstance
from .transform import rounded_count

_INSTANCE_LATENT_W = 0.6
_STEP_LATENT_W = 0.8
# Normal draws per block of instances. 2**13 keeps `hydet synth` peak RSS
# level with per-instance draws; 2**16 added ~2.3 MiB on the default corpus.
_BLOCK_DRAWS = 1 << 13


def _base(ch: ChannelModel, length: int) -> np.ndarray:
    """The channel's ``base_t``: a ramp from ``start`` to ``end``, or flat."""
    if ch.end is None or length == 1:
        return np.full(length, ch.start)
    return np.linspace(ch.start, ch.end, length)


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


def synth_generate(config: SynthConfig, seed: int) -> list[TimeSeriesInstance]:
    """Generate the corpus; bit-identical for identical (config, seed)."""
    rng = CounterRng(seed)
    variables = config.variables
    n_ch = len(variables)
    length = config.length
    per_block = max(1, _BLOCK_DRAWS // ((n_ch + 1) * length))

    plan: list[tuple[ClassLabel, int]] = []
    for label in ClassLabel:
        for k in range(config.counts.get(label, 0)):
            plan.append((label, k))
    n_inst = len(plan)

    values = np.empty((n_inst, n_ch, length), dtype=np.float64)
    first = 0
    for label in ClassLabel:
        count = config.counts.get(label, 0)
        if not count:
            continue
        channels = [config.regimes[label][var] for var in variables]
        bases = [_base(ch, length) for ch in channels]
        keys = np.array([[inst.derive(s).key for s in range(n_ch + 2)]
                         for inst in (rng.derive(1, int(label), k)
                                      for k in range(count))], dtype=np.uint64)
        delta = block_normals(keys[:, 0], 1)
        for k0 in range(0, count, per_block):
            n_blk = min(per_block, count - k0)
            draws = block_normals(keys[k0:k0 + n_blk, 1:].reshape(-1), length)
            draws = draws.reshape(n_blk, n_ch + 1, length)
            z = (_INSTANCE_LATENT_W * delta[k0:k0 + n_blk]
                 + _STEP_LATENT_W * draws[:, 0])
            block = values[first:first + n_blk]
            for j, (ch, base) in enumerate(zip(channels, bases)):
                x = base + ch.latent_loading * z + ch.noise_sd * draws[:, 1 + j]
                if ch.clamp is not None:
                    np.clip(x, ch.clamp[0], ch.clamp[1], out=x)
                block[:, j] = x
            first += n_blk

    _inject_corruption(values, config, rng)

    timestamps = config.epoch_start + np.arange(length, dtype=np.int64)
    timestamps.setflags(write=False)  # one array, shared by every instance
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
    k_frozen = rounded_count(config.frozen_fraction, n_inst * n_ch)
    if k_frozen:
        chosen = rng.derive(2).sample_indices(n_inst * n_ch, k_frozen)
        for c in chosen:
            i, j = divmod(int(c), n_ch)
            values[i, j, :] = values[i, j, 0]
            frozen_mask[i, j] = True

    outlier_mask = np.zeros(values.shape, dtype=bool)
    for j, var in enumerate(config.variables):
        frac = config.outlier_fractions.get(var, 0.0)
        k_out = rounded_count(frac, n_inst * length)
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

    k_missing = rounded_count(config.missing_fraction, total_cells)
    if k_missing:
        outliers = np.flatnonzero(outlier_mask)
        undamaged = total_cells - len(outliers)
        if k_missing > undamaged:
            raise ConfigError("missing_fraction leaves too few undamaged cells")
        picks = rng.derive(4).sample_indices(undamaged, k_missing)
        # undamaged cell p lies past every outlier with at most p undamaged
        # cells before it
        picks += np.searchsorted(outliers - np.arange(len(outliers)), picks, "right")
        values.reshape(-1)[picks] = np.nan
