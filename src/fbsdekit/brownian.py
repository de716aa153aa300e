"""Time grids and reproducible Brownian increments.

The increment store never materializes the full
``(num_paths, fine_n, dim_w)`` array.  Fine step ``k`` is the draw

    ``Generator(Philox(key=seed, counter=[0, k, 0, 0])).standard_normal((num_paths, dim_w))``

of numpy's Philox-4x64-10 generator, keyed by the seed and counted by the
step, then scaled and quantized.  Any step window can therefore be
generated on its own, in any order, by any process, with bit-identical
results.  Each step's draw is filled in C order, so the paths of a store
are a prefix of the paths of any larger store with the same seed; it is
drawn into one reused ``(num_paths, dim_w)`` buffer and copied into the
window, which is stored paths-fastest (see :func:`paths_fastest`).  numpy
does not promise ``Generator`` streams across releases; a known-answer
test pins the values this store draws.

The reference and the coarsening read the grid through one walk,
``BrownianStore._walk``, in windows of at most ``_STREAM_VALUES`` values
(one step, where a step holds more), which bound the transient memory;
the walk caches the coarse sums it forms.  A walk that draws at least
``_FORK_NORMALS`` normals, in a process that may fork and has a second
core (``FBSDE_THREADS`` unset or above 1), forks a producer: a child
process that draws the windows ahead of the walk, on the cores other than
the parent's, into a ring of ``_RING_SLOTS`` shared slots while the parent
sums and steps.  Where ``fbsdekit`` is imported before numpy, the BLAS
pool runs one thread (see the package docstring): the producer is then
forked from a process of one thread and no pool restarts after the fork,
which keeps the gate low.  Every other walk draws its windows in process,
as does a walk whose producer has died, for the windows left.  The
windows are the same bits either way.  A yielded window is valid only
until the next one is requested: its slot is then drawn over.

Each increment is rounded to the nearest multiple of ``2**-40``.  The
rounding perturbs an increment by at most ``~5e-13`` (many orders below
Monte Carlo resolution) and buys an exact-summation property: all partial
sums of one path's increments stay far below ``2**53 * 2**-40``, so they
are computed without rounding error in double precision no matter how the
terms are grouped.  Coarse-grid increments derived from the same store
therefore telescope exactly, and every divisor chain ``n1 | n2 | fine_n``
coarsens consistently.
"""

from __future__ import annotations

import collections
import contextlib
import mmap
import os
import signal
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "paths_fastest",
    "TimeGrid",
    "BrownianStore",
    "PathBatch",
    "make_time_grid",
    "sample_fine_increments",
    "coarsen_increments",
]

# Increments are multiples of this quantum; see module docstring.
_QUANTUM = 2.0**-40

# Values per streamed window of increments (bounds transient memory, and
# sizes the producer's slots: 512 KiB each).
_STREAM_VALUES = 1 << 16

# A walk forks a producer from this many normals on: about twice what a
# producer costs the walk, at some 17 ns per normal.  With the one-thread
# BLAS pool (see the package docstring) no pool restarts after the fork:
# the call takes about 0.8 ms and the parent then meets about 1,000 more
# page faults, and a walk with its ring and pipes breaks even near 2^18.
_FORK_NORMALS = 1 << 19

# Windows a producer may draw ahead of the walk.
_RING_SLOTS = 4


def paths_fastest(shape) -> np.ndarray:
    """Uninitialized float64 array of ``shape`` with the path index (axis
    0) as its contiguous axis.

    Every per-path array the package allocates is stored this way, with
    its public shape unchanged: the Brownian windows and coarse
    increments, the reference and sweep paths, and the feature-derivative
    design rows.  Elementwise algebra over a ``(paths, d)`` slice then runs
    numpy's inner loop along the paths instead of along the short
    component axis.  Contractions whose rounding depends on the layout of
    their operands (the feature products ``phi @ coeffs``, the fit's row
    dots and the path means of the error metrics) are given C-order
    operands.  Results then equal those of C-order storage bit for
    bit up to seven components; numpy sums a C-order row of eight or more
    pairwise.
    """
    return np.empty(shape, order="F")


def _whole_int(value, name: str, positive: bool = False) -> int:
    """``value`` as an ``int``; a whole number, and at least 1 if ``positive``."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, infinities
        whole = None
    if whole is None or whole != value or (positive and whole < 1):
        kind = "a positive integer" if positive else "a whole number"
        raise InvalidArgument(f"{name} must be {kind}, got {value}")
    return whole


def _positive_int(value, name: str) -> int:
    """``value`` as an ``int``; it must be a whole number of at least 1."""
    return _whole_int(value, name, positive=True)


def _positive_horizon(horizon) -> float:
    """``horizon`` as a ``float``; it must be finite and positive."""
    if horizon is None or not np.isfinite(horizon) or horizon <= 0.0:
        raise InvalidArgument(f"horizon must be positive, got {horizon}")
    return float(horizon)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_i = T * (i / n)`` on ``[0, T]`` with step ``h = T / n``."""

    horizon: float
    n: int
    h: float
    nodes: np.ndarray


def make_time_grid(horizon: float, n: int) -> TimeGrid:
    """Build the uniform grid with ``n`` steps on ``[0, horizon]``.

    Node ``i`` is ``horizon * (i / n)``.  The quotient ``i / n`` is
    correctly rounded and equals ``(r * i) / (r * n)``, so the nodes of the
    ``n``-step grid are exactly every ``r``-th node of the ``r * n``-step
    grid, bit for bit; the last node is ``horizon`` itself.
    """
    horizon = _positive_horizon(horizon)
    n = _positive_int(n, "step count")
    nodes = horizon * (np.arange(n + 1, dtype=np.float64) / n)
    return TimeGrid(horizon=horizon, n=n, h=horizon / n, nodes=nodes)


@dataclass(frozen=True)
class BrownianStore:
    """Seeded fine-grid Brownian increments, generated on demand.

    Entry ``(j, k, c)`` is a draw from ``N(0, horizon / fine_n)``,
    independent across all indices: entry ``(j, c)`` of step ``k``'s
    Philox draw (see the module docstring).  ``fine_increments``
    materializes any step window; the ``increments`` property
    materializes the whole array (only sensible for small stores).
    """

    seed: int
    num_paths: int
    fine_n: int
    dim_w: int
    horizon: float
    _coarse_cache: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    @property
    def fine_step_variance(self) -> float:
        return self.horizon / self.fine_n

    @property
    def increments(self) -> np.ndarray:
        return self.fine_increments(0, self.fine_n)

    def fine_increments(self, k0: int, k1: int) -> np.ndarray:
        """Increments for fine steps ``k0 <= k < k1``, all paths/components.

        Returns an array of shape ``(num_paths, k1 - k0, dim_w)``, stored
        paths-fastest.
        """
        if not 0 <= k0 <= k1 <= self.fine_n:
            raise InvalidArgument(f"step window [{k0}, {k1}) out of range")
        out = paths_fastest((self.num_paths, k1 - k0, self.dim_w))
        self._draw(k0, out)
        return out

    def _draw(self, k0: int, out: np.ndarray) -> None:
        """Fill ``out``, a paths-fastest ``(num_paths, steps, dim_w)`` array,
        with the increments of fine steps ``k0 <= k < k0 + steps``."""
        draw = np.empty((self.num_paths, self.dim_w))
        # One generator per call; resetting its state to step k's counter
        # (buffer empty) equals constructing Philox(key, counter=[0, k, 0, 0]).
        gen = np.random.Generator(np.random.Philox(key=self.seed))
        state = gen.bit_generator.state
        for j in range(out.shape[1]):
            state["state"]["counter"][1] = k0 + j
            gen.bit_generator.state = state
            gen.standard_normal(out=draw)
            out[:, j] = draw
        scale = np.sqrt(self.fine_step_variance)
        np.multiply(out, scale / _QUANTUM, out=out)
        np.rint(out, out=out)
        out *= _QUANTUM

    def _walk(self, n: int):
        """Yield ``(i, k0, window)`` over the stream windows of each coarse
        step ``i`` of the ``n``-step grid: ``window`` holds the increments
        ``fine_increments(k0, k1)``, at most ``_STREAM_VALUES`` values (at
        least one step).  Their sums form the coarse increments, cached
        when the walk ends.  ``n`` is positive.

        A forked producer draws the windows of a walk of ``_FORK_NORMALS``
        normals or more, where :func:`_producer_allowed`; every other walk
        draws them in process (see the module docstring).  A window is
        valid only until the next one is requested, and a consumer drops
        it before then.  Close a walk that is not run to its end
        (``contextlib.closing``): that ends its producer at once.
        """
        if self.fine_n % n != 0:
            raise InvalidArgument(f"fine_n={self.fine_n} is not divisible by n={n}")
        span = self.fine_n // n
        sub = max(1, _STREAM_VALUES // (self.num_paths * self.dim_w))
        plan = [
            (k0, min(k0 + sub, (i + 1) * span))
            for i in range(n)
            for k0 in range(i * span, (i + 1) * span, sub)
        ]
        coarse = paths_fastest((self.num_paths, n, self.dim_w))
        coarse.fill(0.0)
        normals = self.num_paths * self.fine_n * self.dim_w
        draws = _Draws(self, plan, normals >= _FORK_NORMALS and _producer_allowed())
        try:
            for j, (k0, _) in enumerate(plan):
                i, window = k0 // span, draws.window(j)
                coarse[:, i, :] += window.sum(axis=1)
                yield i, k0, window
                del window  # dropped before its slot is handed back
                draws.release(j)
        finally:
            draws.close()
        self._note_coarse(n, coarse)

    def _note_coarse(self, n: int, increments: np.ndarray) -> None:
        """Cache coarse increments so later coarsenings can be derived exactly.

        Cached arrays are frozen: they are handed out by reference.
        """
        if n not in self._coarse_cache:
            increments.flags.writeable = False
            self._coarse_cache[n] = increments


def _producer_allowed() -> bool:
    """Whether this process may fork a draw producer: ``os.fork`` exists,
    more than one core is usable and ``FBSDE_THREADS`` is unset or above
    1.  The walk's own size is the other half of the gate."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    try:
        threads = int(os.environ.get("FBSDE_THREADS", cores))
    except ValueError:
        return False
    return cores > 1 and threads > 1


def _other_cores():
    """The usable cores but the one this process runs on, or ``None``
    where either cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            core = int(stat.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {core}
    except (OSError, AttributeError, IndexError, ValueError):
        return None


class _Draws:
    """The windows of one walk's ``plan`` of ``(k0, k1)`` step ranges.

    In process, window ``j`` is ``store.fine_increments(k0, k1)``.  With
    ``fork``, a child process draws them in order, window ``j`` into slot
    ``j % _RING_SLOTS`` of a shared anonymous ``mmap``, and writes one
    byte to the ``full`` pipe per window; before it draws over a slot it
    reads one byte from the ``free`` pipe, which :meth:`release` writes.
    The child exits after its last window, or on EOF.  Window ``j`` is then
    a view of its slot, valid until :meth:`release`.  Once the ``full``
    pipe reads EOF the child is gone, and the windows left are drawn in
    process: the same bits.  So are all of them if the fork fails.
    """

    def __init__(self, store: BrownianStore, plan: list, fork: bool):
        self.store, self.plan = store, plan
        self.pid, self.producing, self.received = None, False, 0
        if not fork:
            return
        self.slot_values = max(_STREAM_VALUES, store.num_paths * store.dim_w)
        self.ring = mmap.mmap(-1, _RING_SLOTS * self.slot_values * 8)
        free_r, self.free_w = os.pipe()
        self.full_r, full_w = os.pipe()
        cores = _other_cores()
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:  # the producer; it never returns
            try:
                self._produce(free_r, full_w, cores)
            finally:
                os._exit(0)
        os.close(free_r)
        os.close(full_w)
        if pid is None:
            os.close(self.free_w)
            os.close(self.full_r)
        self.pid, self.producing = pid, pid is not None

    def _produce(self, free_r: int, full_w: int, cores) -> None:
        """The producer's loop, run in the child on ``cores`` where given.

        Left to itself, the scheduler can keep the producer on its
        parent's core, woken there by every slot handed back, while
        another core idles; the parent then waits its turn.
        """
        os.close(self.free_w)
        os.close(self.full_r)
        if cores:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cores)
        for j, (k0, _) in enumerate(self.plan):
            if j >= _RING_SLOTS and not os.read(free_r, 1):
                return  # the walk was closed
            self.store._draw(k0, self._slot(j))
            os.write(full_w, b"\0")

    def _slot(self, j: int) -> np.ndarray:
        k0, k1 = self.plan[j]
        return np.ndarray(
            (self.store.num_paths, k1 - k0, self.store.dim_w),
            buffer=self.ring, offset=(j % _RING_SLOTS) * self.slot_values * 8,
            order="F",
        )

    def window(self, j: int) -> np.ndarray:
        if self.producing and os.read(self.full_r, 1):
            self.received += 1
            return self._slot(j)
        self.producing = False  # in process, or the producer died
        return self.store.fine_increments(*self.plan[j])

    def release(self, j: int) -> None:
        """Hand window ``j``'s slot back to the producer."""
        if self.producing and j + _RING_SLOTS < len(self.plan):
            # a dead producer is found by the next read
            with contextlib.suppress(BrokenPipeError):
                os.write(self.free_w, b"\0")

    def close(self) -> None:
        """Close the pipes and reap the producer, killed first unless it
        delivered every window."""
        if self.pid is None:
            return
        os.close(self.free_w)
        os.close(self.full_r)
        if self.received < len(self.plan):
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None


def sample_fine_increments(
    seed: int, num_paths: int, fine_n: int, dim_w: int, horizon: float
) -> BrownianStore:
    """Create the increment store for ``num_paths`` paths on the fine grid."""
    return BrownianStore(  # the checks run first, in keyword order
        num_paths=_positive_int(num_paths, "num_paths"),
        fine_n=_positive_int(fine_n, "fine_n"),
        dim_w=_positive_int(dim_w, "dim_w"),
        horizon=_positive_horizon(horizon),
        seed=_whole_int(seed, "seed") & 0xFFFFFFFFFFFFFFFF,
    )


def coarsen_increments(store: BrownianStore, n: int) -> np.ndarray:
    """Sum fine increments into ``n`` coarse steps per path and component.

    Coarse increment ``i`` is the sum of fine increments over the window
    ``[i * fine_n / n, (i + 1) * fine_n / n)``.  Thanks to the quantized
    increments the result is independent of summation order, so the same
    array is obtained whether it is built from the fine grid directly or
    from any cached intermediate coarse level.
    """
    n = _positive_int(n, "step count")
    cached = store._coarse_cache.get(n)
    if cached is not None:
        return cached
    for m in sorted(store._coarse_cache, reverse=True):
        if m % n == 0:
            out = paths_fastest((store.num_paths, n, store.dim_w))
            arr = store._coarse_cache[m]
            arr.reshape(store.num_paths, n, m // n, store.dim_w).sum(axis=2, out=out)
            store._note_coarse(n, out)
            return out
    # the walk caches the coarse sums; the deque drops each window unheld
    collections.deque(store._walk(n), maxlen=0)
    return store._coarse_cache[n]


@dataclass
class PathBatch:
    """Simulated state, value, and gradient-value processes at grid nodes.

    ``x`` has shape ``(num_paths, num_nodes, dim_x)``, ``y`` has shape
    ``(num_paths, num_nodes)`` and ``z`` has shape
    ``(num_paths, num_nodes, dim_w)``.  The batches the package builds are
    stored paths-fastest (see :func:`paths_fastest`).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @property
    def num_paths(self) -> int:
        return self.x.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.x.shape[1]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    def all_states(self) -> np.ndarray:
        """Every state of ``x`` as a ``(num_paths * num_nodes, dim)`` array,
        rows in no documented order; a view on a paths-fastest batch."""
        return self.x.reshape(-1, self.dim, order="F")

    def strided(self, stride: int) -> PathBatch:
        """Every ``stride``-th node, starting at node 0, as views."""
        return PathBatch(
            x=self.x[:, ::stride], y=self.y[:, ::stride], z=self.z[:, ::stride]
        )
