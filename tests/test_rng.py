import numpy as np
import pytest

from hydet.rng import _PHI, CounterRng, _draw_bits, _mix, _norm_ppf, block_normals
from oracles import stream_normals


def test_mix_reference_values():
    # splitmix64 finalizer on the canonical first outputs of seed 0 stream
    assert _mix(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert _mix(0x3C6EF372FE94F82A) == 0x6E789E6AA1B965F4


def test_streams_are_reproducible_and_offsetable():
    rng = CounterRng(1234)
    a = rng.uniforms(100)
    b = CounterRng(1234).uniforms(100)
    assert np.array_equal(a, b)
    # offset addressing slices the same stream
    assert np.array_equal(rng.uniforms(60, offset=40), a[40:])


def test_derived_streams_differ():
    rng = CounterRng(7)
    assert rng.derive(0).key != rng.derive(1).key
    assert rng.derive(0, 1).key != rng.derive(1, 0).key
    assert not np.array_equal(rng.derive(0).uniforms(8), rng.derive(1).uniforms(8))


def test_uniforms_in_range():
    u = CounterRng(5).uniforms(10_000)
    assert (u >= 0.0).all() and (u < 1.0).all()
    v = CounterRng(5).open_uniforms(10_000)
    assert (v > 0.0).all() and (v < 1.0).all()


def test_norm_ppf_against_erf_inverse():
    # check the Acklam approximation against a bisection of Phi via math.erf
    import math

    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    for p in (0.001, 0.02425, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97575, 0.999):
        x = float(_norm_ppf(np.array([p]))[0])
        assert abs(phi(x) - p) < 1e-8


def test_normals_moments():
    z = CounterRng(99).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_permutation_is_a_permutation():
    perm = CounterRng(3).permutation(1000)
    assert np.array_equal(np.sort(perm), np.arange(1000))


def test_sample_indices_distinct():
    idx = CounterRng(3).sample_indices(50, 20)
    assert len(set(idx.tolist())) == 20
    with pytest.raises(ValueError):
        CounterRng(3).sample_indices(5, 6)


def test_block_normals_rows_equal_per_stream_draws():
    root = CounterRng(2024)
    streams = [root.derive(1, 2, k).derive(s) for k in range(6) for s in range(6)]
    keys = np.array([r.key for r in streams], dtype=np.uint64)
    for n in range(1, 71):
        block = block_normals(keys, n)
        assert block.shape == (len(keys), n)
        for row, r in zip(block, streams):
            assert row.tobytes() == stream_normals(r.key, n).tobytes(), n
            assert row.tobytes() == r.normals(n).tobytes(), n
    # offset addressing reads the same stream further on
    assert np.array_equal(block_normals(keys, 30, offset=40),
                          block_normals(keys, 70)[:, 40:])


def _expression_bits(keys, n, offset):
    """Raw draws as whole-array expressions, each step a new array: the
    formula the in-place ``_draw_bits`` and ``_mix_array`` must equal."""
    idx = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    z = np.asarray(keys, dtype=np.uint64)[:, None] + idx * np.uint64(_PHI)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@pytest.mark.parametrize("n, offset", [(1, 0), (2, 1), (7, 3), (1000, 0),
                                       (4099, 2**40), (5, 2**64 - 8)])
def test_in_place_draws_equal_the_expression_formula(n, offset):
    rng = CounterRng(42).derive(3)
    bits = _expression_bits([rng.key], n, offset)[0]
    top = (bits >> np.uint64(11)).astype(np.float64)
    assert np.array_equal(rng.u64(n, offset), bits)
    assert np.array_equal(rng.uniforms(n, offset).view(np.uint64),
                          (top * 2.0 ** -53).view(np.uint64))
    assert np.array_equal(rng.open_uniforms(n, offset).view(np.uint64),
                          ((top + 0.5) * 2.0 ** -53).view(np.uint64))
    keys = np.array([0, 1, 2**63, 2**64 - 1, rng.key], dtype=np.uint64)
    assert np.array_equal(_draw_bits(keys, n, offset),
                          _expression_bits(keys, n, offset))


class _GridRng(CounterRng):
    """A stream whose uniforms take only a few values, so many indices tie."""

    def uniforms(self, n, offset=0):
        return np.floor(super().uniforms(n, offset) * 5.0) / 5.0


@pytest.mark.parametrize("rng", [CounterRng(3), CounterRng(41).derive(4),
                                 _GridRng(8)], ids=["seed3", "derived", "grid"])
def test_sample_indices_is_the_permutation_prefix(rng):
    draws = np.random.default_rng(0)
    sizes = [(1, 0), (1, 1), (2, 1), (5, 5), (997, 0), (997, 1), (997, 996), (997, 997)]
    sizes += [(n, int(draws.integers(0, n + 1)))
              for n in draws.integers(1, 3000, size=25).tolist()]
    for n, k in sizes:
        got = rng.sample_indices(n, k)
        want = rng.permutation(n)[:k]
        assert got.dtype == want.dtype and np.array_equal(got, want), (n, k)


def test_grid_stream_ties_straddle_the_cut():
    # the tie step must matter: the k-th smallest value is shared with rows
    # that fall past the first k
    u = _GridRng(8).uniforms(997)
    cut = np.sort(u)[400 - 1]
    assert (u < cut).sum() < 400 < (u <= cut).sum()
