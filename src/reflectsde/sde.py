"""Penalized Euler schemes for reflected equations with jumps.

Drivers are sampled as step paths frozen at grid points; the scheme relaxes
toward the domain between grid points (exactly, via the closed form) and
adds driver and diffusion increments at grid points, with the coefficient
evaluated at the pre-jump value.

Each drawing part of a path draws from its own Philox stream, keyed by
(seed, path index, component), so a path's values do not depend on the
batch, the block or the thread that draws it.  Long Brownian rows are drawn
on two threads when the process may use two CPUs, and keep every bit
(see :func:`sample_driver_batch`).
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .domain import ConvexDomain, _rows_per_block, _rows_times
from .path import StepPath, _breakpoints
from .penalty import PenalizedPath, _check_driver, _each, _Keep, _rate, _relax_and_step
from .penalty import _solve_row

__all__ = [
    "Grid",
    "Brownian",
    "CompoundPoisson",
    "Drift",
    "JumpSizes",
    "ConstantStart",
    "TablePath",
    "BrownianDrift",
    "DriverSpec",
    "sample_driver",
    "sample_driver_batch",
    "Identity",
    "ConstantMatrix",
    "DiagAffine",
    "PowerDiagonal",
    "Coefficient",
    "euler_penalized",
    "euler_projected",
    "euler_penalized_batch",
    "euler_projected_batch",
    "stochastic_integral",
]


class Grid:
    """Deterministic time grid 0 = t_0 < ... < t_K = q."""

    __slots__ = ("times",)

    def __init__(self, times):
        if np.ndim(times) != 1 or len(times) < 2:
            raise ValueError("grid needs at least two points")
        object.__setattr__(self, "times", _breakpoints(times)[0])

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

    @classmethod
    def regular(cls, q: float, cells: int) -> "Grid":
        _integer(cells, "cells")
        _finite(q, "grid horizon q")
        if not (q > 0 and cells >= 1):
            raise ValueError("need q > 0 and at least one cell")
        return cls(np.linspace(0.0, float(q), int(cells) + 1))

    @property
    def q(self) -> float:
        return float(self.times[-1])

    @property
    def cells(self) -> int:
        return self.times.shape[0] - 1

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    def coarsen(self, factor: int) -> "Grid":
        """Every ``factor``-th point; shares floats exactly with this grid."""
        factor = int(factor)
        if factor < 1 or self.cells % factor != 0:
            raise ValueError(f"cannot coarsen {self.cells} cells by {factor}")
        return Grid(self.times[::factor])

    def index_of(self, t) -> int:
        t = float(t)
        idx = int(np.searchsorted(self.times, t))
        if idx >= self.times.shape[0] or self.times[idx] != t:
            raise ValueError(f"time {t} is not a grid point")
        return idx

    def covers(self, times) -> bool:
        """True when every given time is exactly a grid point."""
        times = np.asarray(times, dtype=float)
        idx = np.searchsorted(self.times, times)
        idx = np.clip(idx, 0, self.times.shape[0] - 1)
        return bool(np.all(self.times[idx] == times))

    def __repr__(self) -> str:
        return f"Grid(cells={self.cells}, q={self.q}, mesh={self.mesh:g})"


def _integer(value, what: str) -> None:
    """Refuse, naming ``what``, a value that is not an integer or is a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _finite(value, what: str) -> np.ndarray:
    """``value`` as a float array, or a ValueError naming ``what`` if an
    entry is not finite."""
    array = np.asarray(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"{what} must be finite, got {value}")
    return array


def _dim_vector(value, dim: int, what: str) -> np.ndarray:
    """``value`` broadcast to a finite (dim,) vector, or a ValueError naming ``what``."""
    try:
        vector = np.broadcast_to(np.asarray(value, dtype=float), (dim,))
    except ValueError:
        raise ValueError(f"{what} does not fit dimension {dim}") from None
    return _finite(vector, what)


# each drawn law: its parameters (a scale is nonnegative), the name of its
# Generator draw (importing needs no numpy.random) and E |xi|^2
_JUMP_LAWS = {
    "normal": (
        ("loc", "scale"),
        "normal",
        lambda dim, loc, scale: dim * (loc**2 + scale**2),
    ),
    "uniform": (
        ("lo", "hi"),
        "uniform",
        lambda dim, lo, hi: dim * (lo * lo + lo * hi + hi * hi) / 3.0,
    ),
    "exponential": (
        ("scale",),
        "exponential",
        lambda dim, scale: dim * 2.0 * scale**2,
    ),
}


@dataclass(frozen=True)
class JumpSizes:
    """Jump size distribution: tag plus parameters, applied iid per
    coordinate unless the tag is 'constant' (fixed vector)."""

    tag: str
    params: tuple = ()

    def __post_init__(self):
        names = _JUMP_LAWS.get(self.tag, (None,))[0]
        if names is None:
            if self.tag != "constant":
                raise ValueError(f"unknown jump size tag {self.tag!r}")
        elif len(self.params) != len(names):
            raise ValueError(f"{self.tag} jumps take {len(names)} parameter(s)")
        _finite(self.params, f"{self.tag} jump parameters")
        if names and names[-1] == "scale" and not self.params[-1] >= 0:
            raise ValueError(f"{self.tag} jump scale must be nonnegative")

    def _check_dim(self, dim: int) -> None:
        vec = np.atleast_1d(np.asarray(self.params, dtype=float))
        if self.tag == "constant" and vec.shape != (dim,):
            raise ValueError("constant jump vector has wrong dimension")

    def sample(self, gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
        if self.tag == "constant":
            self._check_dim(dim)
            return np.tile(np.asarray(self.params, dtype=float), (count, 1))
        return getattr(gen, _JUMP_LAWS[self.tag][1])(*self.params, size=(count, dim))

    def second_moment(self, dim: int) -> float:
        """E |xi|^2 of a single jump."""
        if self.tag == "constant":
            vec = np.atleast_1d(np.asarray(self.params, dtype=float))
            return float(vec @ vec)
        return _JUMP_LAWS[self.tag][2](dim, *self.params)


@dataclass(frozen=True)
class Brownian:
    """Brownian component; ``sigma`` is a scalar, per-coordinate vector,
    or full matrix applied to standard increments."""

    sigma: object = 1.0
    draws = True
    _normal_fill = True

    def __post_init__(self):
        _finite(self.sigma, "brownian sigma")

    def _check_dim(self, dim: int) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 1:
            _dim_vector(sigma, dim, "brownian sigma")
        elif sigma.ndim > 0 and sigma.shape != (dim, dim):
            raise ValueError(f"brownian sigma matrix must be {dim}x{dim}")

    def increments_rows(self, gens, dt: np.ndarray, out: np.ndarray) -> None:
        """Write one row of increments per generator into the (rows, K, d)
        block ``out``: raw normals row by row, then one scaling pass by
        ``sqrt(dt)`` and one by sigma, which a unit scalar sigma skips."""
        for gen, row in zip(gens, out):
            gen.standard_normal(out=row)
        out *= np.sqrt(dt)[:, None]
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            if sigma != 1.0:
                out *= float(sigma)
        elif sigma.ndim == 1:
            out *= sigma
        else:
            out[...] = out @ sigma.T

    def expected_bracket_rate(self, dim: int) -> float:
        """E d[Z] / dt, coordinates summed."""
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            return dim * float(sigma) ** 2
        # a vector's or a matrix's squares, summed
        return float(np.sum(sigma * sigma))

    def variation_rate(self, dim: int) -> float:
        return 0.0


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson component with iid jump sizes."""

    rate: float
    jumps: JumpSizes
    draws = True
    _normal_fill = False

    def __post_init__(self):
        _finite(self.rate, "compound Poisson rate")
        if not self.rate >= 0:
            raise ValueError("compound Poisson rate must be nonnegative")

    def _check_dim(self, dim: int) -> None:
        self.jumps._check_dim(dim)

    def increments_rows(self, gens, dt: np.ndarray, out: np.ndarray) -> None:
        """Jump counts and sizes drawn row by row, then one scatter of all
        sizes into the zeroed (rows, K, d) block ``out``, in draw order."""
        mean_counts = self.rate * dt
        counts = np.empty(out.shape[:2], dtype=np.int64)
        sizes = []
        for gen, row in zip(gens, counts):
            row[...] = gen.poisson(mean_counts)
            total = int(row.sum())
            if total:
                sizes.append(self.jumps.sample(gen, total, out.shape[2]))
        out[...] = 0.0
        if sizes:
            cell = np.repeat(np.arange(counts.size), counts.ravel())
            np.add.at(out.reshape(-1, out.shape[2]), cell, np.concatenate(sizes))

    def expected_bracket_rate(self, dim: int) -> float:
        return self.rate * self.jumps.second_moment(dim)

    def variation_rate(self, dim: int) -> float:
        return 0.0


@dataclass(frozen=True)
class Drift:
    """Deterministic drift component with constant rate vector."""

    rate: object
    draws = False

    def _check_dim(self, dim: int) -> None:
        _dim_vector(self.rate, dim, "drift rate")

    def increments(self, dt: np.ndarray, dim: int) -> np.ndarray:
        return _dim_vector(self.rate, dim, "drift rate")[None, :] * dt[:, None]

    def expected_bracket_rate(self, dim: int) -> float:
        return 0.0

    def variation_rate(self, dim: int) -> float:
        return float(np.sum(np.abs(_dim_vector(self.rate, dim, "drift rate"))))


@dataclass(frozen=True)
class ConstantStart:
    """Driver component H frozen at its starting point."""

    x0: object
    draws = False

    def _check_dim(self, dim: int) -> None:
        _dim_vector(self.x0, dim, "h start")

    def values(self, times: np.ndarray, dim: int) -> np.ndarray:
        return np.tile(_dim_vector(self.x0, dim, "h start"), (times.shape[0], 1))


@dataclass(frozen=True)
class TablePath:
    """Deterministic H given as a step path, frozen at grid points."""

    path: StepPath
    draws = False

    def _check_dim(self, dim: int) -> None:
        if self.path.dim != dim:
            raise ValueError("table path has wrong dimension")

    def values(self, times: np.ndarray, dim: int) -> np.ndarray:
        return self.path.eval_many(times)


@dataclass(frozen=True)
class BrownianDrift:
    """H = x0 + drift t + sigma B_t sampled at grid points."""

    x0: object
    sigma: object = 1.0
    drift: object = 0.0
    draws = True
    _normal_fill = True

    def _check_dim(self, dim: int) -> None:
        _dim_vector(self.x0, dim, "h start")
        _dim_vector(self.drift, dim, "h drift")
        Brownian(self.sigma)._check_dim(dim)

    def values_rows(self, gens, times: np.ndarray, out: np.ndarray) -> None:
        """Write one path per generator into the (rows, K+1, d) block ``out``."""
        dim = out.shape[2]
        x0 = _dim_vector(self.x0, dim, "h start")
        inc = out[:, 1:]
        Brownian(self.sigma).increments_rows(gens, np.diff(times), inc)
        np.cumsum(inc, axis=1, out=inc)
        inc += x0
        out[:, 0] = x0
        out += _dim_vector(self.drift, dim, "h drift")[None, :] * times[:, None]


@dataclass(frozen=True)
class DriverSpec:
    """Joint specification of the free term H and the integrator Z.

    Z is the sum of the listed components.  Component RNG streams are
    keyed by (seed, path index, component index), with H at index 0 and
    the Z components following in order, so adding a component never
    changes the draws of the others.  A part's ``draws`` flag says whether
    it takes a stream at all, and with it which one method it has: a
    drawing part fills a block of rows from one generator per row
    (``values_rows`` for H, ``increments_rows`` for Z), and a
    deterministic one returns its one row without a generator (``values``
    for H, ``increments`` for Z).  Each part is checked against ``dim``
    when the spec is built.
    """

    dim: int
    h: object
    z_components: tuple = ()

    def __post_init__(self):
        for part in (self.h, *self.z_components):
            part._check_dim(self.dim)

    def expected_bracket(self, q: float) -> float:
        """E [Z]_q, coordinates summed; exact from the component laws."""
        return q * sum(
            c.expected_bracket_rate(self.dim) for c in self.z_components
        )

    def expected_variation(self, q: float) -> float:
        """|V|_q of the deterministic finite-variation part."""
        return q * sum(c.variation_rate(self.dim) for c in self.z_components)


# numpy's SeedSequence constants (O'Neill's seed_seq scheme, PCG 2015)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of an int."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's word hash: xor with a running constant, which steps
    by ``mult`` before the multiply, then xor-shift.  uint32 array
    arithmetic wraps modulo 2^32 as the C code does (scalars would warn)."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _pool_hash(entropy: list) -> np.ndarray:
    """SeedSequence's entropy pool and ``generate_state(2, np.uint64)``
    over uint32 columns: ``entropy[i]`` holds word i of every row, and row
    r of the result is the two keys of row r.  The hash constants follow a
    fixed sequence, so all rows go at once."""
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    output = _hashmix(_INIT_B, _MULT_B)
    state = [output(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _philox_keys(seed: int, paths: range, component: int) -> np.ndarray:
    """The (len(paths), 2) Philox keys of
    ``SeedSequence(entropy=seed, spawn_key=(p, component))`` for every path
    index p in ``paths``, from one vectorized hash per run of indices with
    the same number of 32-bit words."""
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    keys = np.empty((len(paths), 2), dtype=np.uint64)
    start = paths.start
    while start < paths.stop:
        high = start >> 32
        stop = min(paths.stop, (high + 1) << 32)
        low = np.arange(start & _MASK32, ((stop - 1) & _MASK32) + 1, dtype=np.uint32)
        words = [*run, 0, *(_words(high) if high else []), *_words(component)]
        entropy = [np.full_like(low, w) for w in words]
        entropy[len(run)] = low
        keys[start - paths.start : stop - paths.start] = _pool_hash(entropy)
        start = stop
    return keys


def _row_streams(gen: np.random.Generator, keys: np.ndarray):
    """Yield ``gen`` once per key, its Philox reset each time to the fresh
    stream of that key: zero counter, empty buffer, no cached word.  The
    state is given as Python ints, which the setter reads faster than
    numpy scalars (0.45 against 1.2 us a row on a 2-core x86-64 host)."""
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys.tolist():
        state["state"]["key"] = key
        gen.bit_generator.state = state
        yield gen


# threads that draw the rows of a part whose row draw is one
# standard_normal fill; two is the count a 2-core host can check
_WORKERS = 2

# values per row (K d) from which such a part is drawn on threads.  A
# Brownian Z of M = 4000 rows on a 2-core x86-64 host, one thread -> two:
# K = 256 50 -> 83 ms, K = 512 84 -> 80 ms, K = 1024 150 -> 104 ms,
# K = 2048 311 -> 203 ms
_THREAD_ROW_VALUES = 1024


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_threads(work, calls) -> None:
    """``work(*call)`` for each call, each on a thread of its own that runs
    in a copy of this thread's context, so that numpy's errstate, a
    context variable, holds there too.  Every thread is joined before
    this returns or raises the exception of the earliest call that raised."""
    errors = [None] * len(calls)

    def run(i):
        try:
            work(*calls[i])
        except BaseException as exc:
            errors[i] = exc

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, i))
        for i in range(len(calls))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def sample_driver(
    spec: DriverSpec, grid: Grid, seed: int, path_index: int = 0
) -> tuple[StepPath, StepPath]:
    """Sample one (H, Z) pair frozen at the grid points.

    Reproducible bit for bit from (seed, path_index); refining the grid
    redraws the increments.  This is the one-row :func:`sample_driver_batch`.
    """
    H, Z = sample_driver_batch(spec, grid, seed, 1, path_index)
    return StepPath(grid.times, H[0], grid.q), StepPath(grid.times, Z[0], grid.q)


def sample_driver_batch(
    spec: DriverSpec, grid: Grid, seed: int, paths: int, first_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``paths`` drivers as value arrays of shape (M, K+1, d).

    Stream contract: row i carries path index ``p = first_index + i``, and
    each drawing part of the spec (H at component 0, the Z components from
    1) draws from its own Philox stream keyed by (seed, p, component), so a
    row depends only on (seed, p) and never on M, ``first_index`` or the
    other components.  The key is that of
    ``SeedSequence(entropy=seed, spawn_key=(p, component))``; all keys of a
    part come from one vectorized hash, and one Philox is reset to each
    row's key in turn.  Parts that draw nothing (a constant or table H, a
    drift) get no stream, take no generator and are computed once.

    The parts are sampled one after another, each over blocks of
    ``domain._rows_per_block`` rows in a cache-sized scratch buffer.  Only
    the raw draws (normals, jump counts and sizes) are made row by row;
    ``sqrt(dt)`` and sigma scaling and the jump scatter run over the block.
    Z is the running sum of its first component's increments plus the
    cumulative sums of the later ones, in component order.  The first drawn
    component's increments are copied into Z's time-major slabs, and one
    addition per grid point over all rows, ``Z[k] = Z[k-1] + dZ[k]`` from
    ``Z[0] = 0.0``, makes the same sequence of additions as a cumulative
    sum added to zeros (so a -0.0 sum reads +0.0).  A later component's
    cumulative sum is taken in the block and added.  The arithmetic per row is the same as for one row,
    so :func:`sample_driver` is bit-identical to the matching row, and the
    block size changes no bit.

    A part whose row draw is one ``standard_normal`` fill (a Brownian
    component or H, flagged ``_normal_fill``), whose rows hold at least ``_THREAD_ROW_VALUES``
    (K d) values and which spans at least two blocks, is drawn on
    ``_WORKERS`` threads, or on as many as the process has CPUs if that is
    fewer but at least two: numpy releases the GIL inside the fill and the
    block arithmetic.  Each thread takes a contiguous share of the rows
    with its own Philox and a scratch of 1/``_WORKERS`` block, and draws,
    scales and writes (or, for a later component, adds) its rows into its
    own columns of H or Z.  Since a row's values depend only on its stream
    and its own arithmetic, which thread draws it changes no bit.  The
    running sum over grid points, which spans all rows, is taken after
    the threads are joined.  The threads run in copies of the caller's
    context, so its ``np.errstate`` holds there; an exception in a thread
    is raised in the caller once all are joined, and no thread outlives
    the call.  A compound Poisson part stays on one thread: its per-row
    work (counts, sizes, the scatter's index) holds the GIL, and two
    threads drew it slower than one (K = 1024, M = 4000: 246 -> 373 ms).

    H and Z are (M, K+1, d) views of time-major (K+1, M, d) buffers, not
    C-contiguous arrays: each grid point's values are one contiguous
    (M, d) slab, which is how the schemes read them.  A deterministic H
    has no buffer: it is a read-only view of its (K+1, d) values
    broadcast along paths (stride 0 on the path axis).
    """
    _integer(seed, "seed")
    if paths < 0:
        raise ValueError(f"paths must be nonnegative, got {paths}")
    if first_index < 0:
        raise ValueError(f"first_index must be nonnegative, got {first_index}")
    times = grid.times
    dt = np.diff(times)
    K, dim = dt.shape[0], spec.dim
    shape = (K + 1, paths, dim)
    rows = range(first_index, first_index + paths)
    block = _rows_per_block(K * dim)

    def draw(part, fill, grid_values, component, store):
        """Every row of ``part``, block by block, on this thread or, for
        long rows of a normal fill, on threads that each take a share of
        the rows with a generator and scratch of their own: ``fill`` draws
        a block into a (rows, len(grid_values), d) scratch from the rows'
        streams of ``component``, and ``store`` takes its row slice and
        the block, and writes only those rows."""
        keys = _philox_keys(seed, rows, component)

        def rows_from(start, stop, size):
            gen = np.random.Generator(np.random.Philox(0))
            scratch = np.empty((min(size, stop - start), grid_values.shape[0], dim))
            for begin in range(start, stop, size):
                b = slice(begin, min(begin + size, stop))
                out = scratch[: b.stop - begin]
                fill(_row_streams(gen, keys[b]), grid_values, out)
                store(b, out)

        threaded = part._normal_fill and K * dim >= _THREAD_ROW_VALUES and paths > block
        workers = min(_WORKERS, _cpus()) if threaded else 1
        bounds = [paths * w // workers for w in range(workers + 1)]
        calls = [(*bounds[w : w + 2], max(1, block // workers)) for w in range(workers)]
        if workers == 1:
            rows_from(*calls[0])
        else:
            _on_threads(rows_from, calls)

    if spec.h.draws:
        H = np.empty(shape)

        def write_h(b, out):
            H[:, b] = out.transpose(1, 0, 2)

        draw(spec.h, spec.h.values_rows, times, 0, write_h)
    else:
        H = np.broadcast_to(spec.h.values(times, dim)[:, None], shape)
    Z = np.empty(shape)
    Z[0] = 0.0
    if not spec.z_components:
        Z[1:] = 0.0

    def write_first(b, inc):
        Z[1:, b] = inc.transpose(1, 0, 2)

    def add_sum(b, inc):
        Z[1:, b] += np.cumsum(inc, axis=1, out=inc).transpose(1, 0, 2)

    for c, comp in enumerate(spec.z_components, start=1):
        if not comp.draws:
            total = np.cumsum(comp.increments(dt, dim), axis=0)[:, None]
            if c == 1:
                np.add(0.0, total, out=Z[1:])
            else:
                Z[1:] += total
            continue
        draw(comp, comp.increments_rows, dt, c, write_first if c == 1 else add_sum)
        if c == 1:
            for k in range(1, K + 1):
                np.add(Z[k - 1], Z[k], out=Z[k])
    return H.transpose(1, 0, 2), Z.transpose(1, 0, 2)


class Coefficient:
    """Matrix-valued coefficient x -> f(x) applied to integrator increments.

    A subclass defines only ``contract``, the rows f(X[i]) @ dZ[i] of
    (M, d) arrays, rounded the same way whatever M; the result may be
    ``dZ`` itself (the identity's is), so callers only read it.  The
    schemes and :func:`stochastic_integral` apply f through it, and
    :meth:`mat` is derived from it, so no second formula can drift from
    the first.
    """

    dim: int

    def contract(self, X: np.ndarray, dZ: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mat(self, x) -> np.ndarray:
        """f(x) as a (d, d) matrix: column j is f(x) applied to the unit
        vector e_j through ``contract``."""
        X = np.tile(np.asarray(x, dtype=float), (self.dim, 1))
        return self.contract(X, np.eye(self.dim)).T


class Identity(Coefficient):
    def __init__(self, dim: int):
        self.dim = int(dim)

    def contract(self, X, dZ):
        return dZ


class ConstantMatrix(Coefficient):
    def __init__(self, matrix):
        A = np.atleast_2d(_finite(matrix, "coefficient matrix"))
        if A.shape[0] != A.shape[1]:
            raise ValueError("coefficient matrix must be square")
        self.matrix = A
        self.dim = A.shape[0]

    def contract(self, X, dZ):
        return _rows_times(dZ, self.matrix)


class DiagAffine(Coefficient):
    """Diagonal Lipschitz coefficient f(x) = diag(a + b |x_i|) with a, b >= 0."""

    def __init__(self, dim: int, base: float, slope: float):
        _finite([base, slope], "diagonal affine base and slope")
        if base < 0 or slope < 0:
            raise ValueError("need nonnegative base and slope")
        self.dim = int(dim)
        self.base = float(base)
        self.slope = float(slope)

    def diag(self, X):
        return self.base + self.slope * np.abs(X)

    def contract(self, X, dZ):
        return self.diag(X) * dZ


class PowerDiagonal(Coefficient):
    """Diagonal Holder coefficient f(x) = diag(min(|x_i|, cap)^alpha).

    For alpha in [1/2, 1) this is not Lipschitz at the origin, yet
    ||f(x) - f(y)||_F^2 <= dim * (|x - y|^2)^alpha: each diagonal entry is
    alpha-Holder with constant 1, and u -> dim * u^alpha is concave,
    vanishes at zero, and has a divergent integral of 1/rho near zero,
    which is the classical pathwise-uniqueness regime in dimension one.
    """

    def __init__(self, dim: int, alpha: float, cap: float = np.inf):
        if not 0.5 <= alpha < 1.0:
            raise ValueError("alpha must lie in [1/2, 1)")
        if not cap > 0:
            raise ValueError("cap must be positive")
        self.dim = int(dim)
        self.alpha = float(alpha)
        self.cap = float(cap)

    def diag(self, X):
        return np.minimum(np.abs(X), self.cap) ** self.alpha

    def contract(self, X, dZ):
        return self.diag(X) * dZ


def _path_values(domain, f, H, Z, grid):
    """Check one path's inputs; H and Z at the grid points, (K+1, d) each."""
    _check_driver(domain, H)
    if Z.dim != domain.dim or f.dim != domain.dim:
        raise ValueError("integrator and coefficient dimensions must match the domain")
    if not (grid.covers(H.times) and grid.covers(Z.times)):
        raise ValueError("driver breakpoints must be grid points")
    if abs(grid.q - H.q) > 0 or abs(grid.q - Z.q) > 0:
        raise ValueError("driver horizons must equal the grid horizon")
    return H.eval_many(grid.times), Z.eval_many(grid.times)


def euler_penalized(
    domain: ConvexDomain,
    f: Coefficient,
    H: StepPath,
    Z: StepPath,
    n: float,
    grid: Grid,
) -> PenalizedPath:
    """One penalized Euler path.

    Between grid points the state relaxes exactly toward its projection at
    rate n; at a grid point the increments of H and of the integral term
    are added, with f evaluated at the pre-jump (relaxed) value.  The
    path is the one-row batch of :func:`euler_penalized_batch`, and raises
    NumericalError where that row would fail.
    """
    n = _rate(n)
    hv, zv = _path_values(domain, f, H, Z, grid)
    states, projections = _solve_row(domain, f, hv, zv, n, grid.times)
    return PenalizedPath(n, grid.times, states, projections, grid.q)


def euler_projected(
    domain: ConvexDomain,
    f: Coefficient,
    H: StepPath,
    Z: StepPath,
    grid: Grid,
) -> StepPath:
    """Projected Euler path: same update with projection instead of
    relaxation (the penalized scheme's rate-to-infinity limit); raises
    NumericalError where the one-row batch would fail."""
    hv, zv = _path_values(domain, f, H, Z, grid)
    states, _ = _solve_row(domain, f, hv, zv, np.inf, grid.times)
    return StepPath(grid.times, states, grid.q)


def _scheme_batch(domain, f, H_vals, Z_vals, n, grid, at=None, visit=None):
    """The body of both batch schemes: check the driver arrays against the
    grid and domain, run the kernel keeping ``at`` (and visiting ``visit``)
    and return the kept failed rows as NaN.  The projected scheme (n = inf)
    returns its states alone, so it keeps no projections (None)."""
    M, K1, d = H_vals.shape
    if Z_vals.shape != (M, K1, d) or K1 != grid.times.shape[0] or d != domain.dim:
        raise ValueError("driver value arrays do not match the grid/domain")
    keep = _Keep(at, K1, M, d, projections=n < np.inf)
    both = keep if visit is None else _each(keep, visit)
    failed = _relax_and_step(domain, f, H_vals, Z_vals, n, grid.times, both)
    keep.states[failed] = np.nan
    if keep.projections is not None:
        keep.projections[failed] = np.nan
    return keep.states, keep.projections


def euler_penalized_batch(
    domain: ConvexDomain,
    f: Coefficient,
    H_vals: np.ndarray,
    Z_vals: np.ndarray,
    n: float,
    grid: Grid,
    at=None,
    visit=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized penalized scheme over (M, K+1, d) driver values.

    Returns (states, projections) of shape (M, K+1, d), as views of
    time-major (K+1, M, d) buffers, not C-contiguous arrays.  Single paths
    and batches run the same kernel, so row i agrees bit for bit with
    :func:`euler_penalized` on the same driver, and the driver arrays'
    layout does not change a bit.  A row that fails by the kernel's rule
    (see :func:`penalty._relax_and_step`) is NaN throughout.

    ``at`` keeps only the listed grid indices, strictly increasing in
    [0, K]: the result is then (M, len(at), d), equal bit for bit to the
    full history at those indices, and no other grid point is stored.  A
    runner that reads the marginal at t = q passes ``at=[grid.cells]``.
    ``visit(k, x, p)``, when given, sees the (M, d) states and projections
    of every grid index k as the kernel steps, so a runner reduces rows
    without holding their history.  Later steps overwrite the slabs, so it
    copies what it keeps; it sees a failing row's raw values, which the
    caller masks by the NaN rows of the result; it runs under
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    return _scheme_batch(domain, f, H_vals, Z_vals, _rate(n), grid, at, visit)


def euler_projected_batch(
    domain: ConvexDomain,
    f: Coefficient,
    H_vals: np.ndarray,
    Z_vals: np.ndarray,
    grid: Grid,
) -> np.ndarray:
    """Vectorized projected scheme over (M, K+1, d) driver values; rows
    agree bit for bit with :func:`euler_projected`, and a row that fails
    by the kernel's rule is NaN throughout.  The result is an (M, K+1, d)
    view of a time-major buffer, not a C-contiguous array.  The path is
    its states, so the run keeps no projection history."""
    return _scheme_batch(domain, f, H_vals, Z_vals, np.inf, grid)[0]


def stochastic_integral(
    f: Coefficient,
    X,
    Z: StepPath,
    grid: Grid,
    t=None,
) -> np.ndarray:
    """Left-endpoint integral of f(X) against Z along the grid up to t.

    X may be a penalized or step path; the integrand uses the pre-jump
    value at each grid point, matching the scheme's update rule.  ``t``
    must be a grid point.
    """
    t = grid.q if t is None else float(t)
    stop = grid.index_of(t)
    zv = Z.eval_many(grid.times[: stop + 1])
    acc = np.zeros(Z.dim)
    for k in range(stop):
        pre = X.left_limit(grid.times[k + 1])
        acc += f.contract(pre[None], (zv[k + 1] - zv[k])[None])[0]
    return acc
