"""Deterministic counter-based random number generation.

Synthetic corpora must be bit-identical across runs, platforms and worker
counts, so this module fixes the generator algorithm instead of relying on
a library whose stream may change between releases.

Algorithm
---------
The generator is counter-based: draw ``i`` of a stream with key ``K`` is

    u64(i) = mix(K + (i + 1) * PHI)   (all arithmetic mod 2**64)

where ``PHI = 0x9E3779B97F4A7C15`` (the 64-bit golden-ratio increment) and
``mix`` is the splitmix64 finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

Stream keys are derived from a user seed and integer labels:

    key(seed)          = mix(seed)
    child(key, label)  = mix(key ^ mix(label * PHI + 1))

Uniform doubles take the top 53 bits: ``(u64 >> 11) * 2**-53`` for [0, 1),
or with a half-bit offset for the open interval (0, 1). Normal deviates map
one open-interval uniform through the Acklam inverse-normal-CDF
approximation (relative error < 1.15e-9), so draw counts are position-stable.

One draw path
-------------
:func:`block_normals` draws a ``(streams, n)`` block for an array of stream
keys at once: the counters of every row, then the open uniforms, then one
``_norm_ppf`` over the whole contiguous block. A draw depends on its
(key, counter) pair alone, so a row of the block equals what its stream
draws by itself. :class:`CounterRng`'s ``u64``, ``open_uniforms`` and
``normals`` are the same stages with a single key. The raw draws are mixed
in place, so ``uniforms(n)`` holds at most two n-long arrays at once.

Sampling
--------
``sample_indices(n, k)`` is defined as ``permutation(n)[:k]``, the first k
indices in (uniform, index) order. It is computed by selection instead of a
sort of all n uniforms: ``np.partition`` finds the k-th smallest uniform,
every index below it is taken together with the lowest-index ones equal to
it, and only those k are sorted.
"""

from __future__ import annotations

import numpy as np

_PHI = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """``_mix`` of each element of ``z``, in place through one scratch array."""
    scratch = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


# Acklam's rational approximation to the inverse standard normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01,
      2.445134137142996e+00, 3.754408661907416e+00)
_P_LOW = 0.02425


def _norm_ppf(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF on (0, 1), vectorized."""
    p = np.asarray(p, dtype=np.float64)
    x = np.empty_like(p)

    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = num * q / den

    for mask, sign, pp in ((lo, 1.0, p), (hi, -1.0, 1.0 - p)):
        if np.any(mask):
            q = np.sqrt(-2.0 * np.log(pp[mask]))
            num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
            den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
            x[mask] = sign * num / den

    return x


def _draw_bits(keys: np.ndarray, n: int, offset: int) -> np.ndarray:
    """``(len(keys), n)`` raw draws ``offset .. offset + n - 1`` of each stream."""
    z = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    z *= np.uint64(_PHI)
    z = np.asarray(keys, dtype=np.uint64)[:, None] + z  # frees the counter row
    return _mix_array(z)


def _open_unit(bits: np.ndarray) -> np.ndarray:
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def block_normals(keys: np.ndarray, n: int, offset: int = 0) -> np.ndarray:
    """``(len(keys), n)`` normals: row r holds draws ``offset .. offset + n - 1``
    of the stream with key ``keys[r]``, bit-identical to that stream's own
    ``normals(n, offset)``."""
    u = _open_unit(_draw_bits(keys, n, offset))
    # one contiguous pass, so every element takes the same numpy loop
    return _norm_ppf(u.reshape(-1)).reshape(u.shape)


class CounterRng:
    """Counter-based deterministic generator (see module docstring).

    A :class:`CounterRng` is immutable; blocks of draws are addressed by
    offset, so independent consumers of the same stream never interfere
    and results do not depend on evaluation order.
    """

    __slots__ = ("key",)

    def __init__(self, seed: int, *, _raw_key: int | None = None):
        self.key = _mix(seed & _MASK) if _raw_key is None else _raw_key

    def derive(self, *labels: int) -> "CounterRng":
        """Child stream for a tuple of integer labels."""
        k = self.key
        for lab in labels:
            k = _mix(k ^ _mix((lab * _PHI + 1) & _MASK))
        return CounterRng(0, _raw_key=k)

    def _keys(self) -> np.ndarray:
        return np.array([self.key], dtype=np.uint64)

    def u64(self, n: int, offset: int = 0) -> np.ndarray:
        return _draw_bits(self._keys(), n, offset)[0]

    def uniforms(self, n: int, offset: int = 0) -> np.ndarray:
        """n doubles in [0, 1)."""
        bits = self.u64(n, offset)
        bits >>= np.uint64(11)  # in place, as the scaling below
        u = bits.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def open_uniforms(self, n: int, offset: int = 0) -> np.ndarray:
        """n doubles in the open interval (0, 1)."""
        return _open_unit(self.u64(n, offset))

    def normals(self, n: int, offset: int = 0) -> np.ndarray:
        return block_normals(self._keys(), n, offset)[0]

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of per-index uniforms."""
        return np.argsort(self.uniforms(n), kind="stable")

    def sample_indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in draw order: ``permutation(n)[:k]``,
        found by selection (see module docstring)."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        if k == 0:
            return np.empty(0, dtype=np.intp)
        u = self.uniforms(n)
        cut = np.partition(u, k - 1)[k - 1]
        chosen = u < cut
        # the k-th place may be shared: the lowest indices holding it come first
        ties = np.flatnonzero(u == cut)[:k - np.count_nonzero(chosen)]
        chosen[ties] = True
        picked = np.flatnonzero(chosen)
        return picked[np.argsort(u[picked], kind="stable")]
