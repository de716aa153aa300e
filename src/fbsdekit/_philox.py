"""Counter-based uniform stream (Philox-4x32-10, Salmon et al. 2011).

One Philox block is keyed by the 64-bit seed and counter lanes
``(step, path, block, 0)`` and yields two doubles in (0, 1).  Entries are
pure functions of their indices, so any sub-block of the stream can be
produced independently and in any order.

The numpy kernel fills the output in blocks of at most ``_LANES`` lanes.
Each block runs the ten rounds in place on six buffers allocated once per
call, small enough to stay in cache, so the kernel's memory is bounded by
one block and the caller's window bounds the total.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_ROUNDS = 10

# Philox lanes per kernel block: six uint64 buffers of this length take
# 768 KB, which stays in a core's L2 cache.
_LANES = 1 << 14


def philox_words(seed: int, x0, x1, x2, x3, p0, p1) -> None:
    """Philox-4x32-10 applied lane-wise, in place, to uint64 arrays.

    ``x0..x3`` hold the four 32-bit counter words on entry and the four
    output words on return; ``p0`` and ``p1`` are scratch of the same
    shape.  Products of two 32-bit lanes fit a uint64 exactly, which gives
    mulhi/mullo without extended precision.
    """
    k0 = seed & 0xFFFFFFFF
    k1 = (seed >> 32) & 0xFFFFFFFF
    for r in range(_ROUNDS):
        rk0 = np.uint64((k0 + r * _W0) & 0xFFFFFFFF)
        rk1 = np.uint64((k1 + r * _W1) & 0xFFFFFFFF)
        np.multiply(x0, _M0, out=p0)
        np.multiply(x2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=x0)
        x0 ^= x1
        x0 ^= rk0
        np.right_shift(p0, _SHIFT32, out=x2)
        x2 ^= x3
        x2 ^= rk1
        np.bitwise_and(p1, _MASK32, out=x1)
        np.bitwise_and(p0, _MASK32, out=x3)


def _to_unit(hi, lo, out) -> None:
    """Write the 53 top bits of the word pair ``(hi, lo)`` as doubles.

    ``hi`` is overwritten.  +0.5 keeps the stream strictly inside (0, 1).
    """
    hi <<= _SHIFT32
    hi |= lo
    hi >>= _SHIFT11
    np.add(hi, 0.5, out=out)
    out *= 2.0**-53


def uniform_stream(
    seed: int, k0: int, num_paths: int, n_steps: int, n_blocks: int
) -> np.ndarray:
    """Uniforms for steps ``[k0, k0 + n_steps)``, all paths and blocks.

    Returns shape ``(num_paths, n_steps, 2 * n_blocks)``; the pair
    ``(2b, 2b + 1)`` comes from the Philox block with counter
    ``(step, path, b, 0)``.
    """
    out = np.empty((num_paths, n_steps, 2 * n_blocks))
    if out.size == 0:
        return out
    # A kernel block is a rectangle of paths x steps x all Philox blocks:
    # whole paths when one path fits, otherwise a run of steps of one path.
    per_path = n_steps * n_blocks
    if per_path <= _LANES:
        rows, span = min(_LANES // per_path, num_paths), n_steps
    else:
        rows, span = 1, max(1, _LANES // n_blocks)
    buffers = np.empty((6, rows * span * n_blocks), dtype=np.uint64)
    blocks = np.arange(n_blocks, dtype=np.uint64)
    for j0 in range(0, num_paths, rows):
        j1 = min(j0 + rows, num_paths)
        for s0 in range(0, n_steps, span):
            s1 = min(s0 + span, n_steps)
            shape = (j1 - j0, s1 - s0, n_blocks)
            size = shape[0] * shape[1] * n_blocks
            x0, x1, x2, x3, p0, p1 = (b[:size].reshape(shape) for b in buffers)
            x0[...] = np.arange(k0 + s0, k0 + s1, dtype=np.uint64)[:, None]
            x1[...] = np.arange(j0, j1, dtype=np.uint64)[:, None, None]
            x2[...] = blocks
            x3.fill(0)
            philox_words(seed, x0, x1, x2, x3, p0, p1)
            _to_unit(x0, x1, out[j0:j1, s0:s1, 0::2])
            _to_unit(x2, x3, out[j0:j1, s0:s1, 1::2])
    return out
