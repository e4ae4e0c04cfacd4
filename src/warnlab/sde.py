"""Exact-transition Monte Carlo for the mode SDEs.

``simulate_ensemble`` is the one stepping path. It uses the exact Gaussian
transition of the linear system: over one step the state maps to e^{A dt} x
plus a Gaussian increment whose covariance is the integral of e^{sA} C e^{sA*}
over [0, dt]. For a simple mode this is the classical Ornstein-Uhlenbeck
update with variance noise_var * (e^{2 Re(lambda) dt} - 1) / (2 Re(lambda));
for Jordan blocks the matrix exponential is closed-form. The step covariance
of the whole model is ``lyapunov.model_covariance`` at t = dt, the same
block-pair kernel as the stationary covariance, which stays exact for stiff
modes and near-critical blocks, so no discretization bias enters at any dt.
``_mixing`` is the one mixing rule, which ``EmpiricalCovariance.mixing_warning``
and the command line's pre-flight warning and report flag all read.

Randomness is reproducible by construction: trajectory i draws from a
dedicated generator, exactly PCG64(splitmix64(master_seed, i)), and
reductions over trajectories run in index order. A chunk's seeds go through
numpy's SeedSequence hash in one vectorized pass (``_seed_states``), and each
PCG64 is seeded from its precomputed row, which skips the per-generator
hashing but not a bit of the stream.

Trajectories run in near-equal chunks on worker processes, at most one per
core and one per ``_MIN_CHUNK_WORK`` trajectories · steps · modes
(``_chunk_plan``).
The caller is worker 0, and each other worker is a child forked for the call
(``_run_workers``), so no interpreter lock serializes the step loop; forking
needs Linux, and elsewhere the plan keeps one worker, the caller. Chunks share
no state: worker w runs chunks w, w + workers, ... and writes only their rows
of the per-trajectory time averages, which live in one anonymous shared
mapping and reduce over all N in index order once every child is reaped. A
child's exception comes back through a pipe and is raised in the caller; a
failure anywhere kills and reaps the remaining children, so none outlives the
call. The child's first bytes down its pipe are its pid, so the caller kills
and reaps it even when ``os.fork`` raises after the child exists. From Python
3.12, ``os.fork`` warns (DeprecationWarning) when the process has other
threads after the fork, and ``_run_workers`` silences exactly that warning:
the child runs only numpy on arrays made before the fork, plus pickle and os
calls on a failure, and leaves through ``os._exit``. numpy's OpenBLAS stops
its thread pool in a ``pthread_atfork`` handler, so its threads do not count,
and in the child the pool restarts at the first BLAS call with the caller's
bits (the tests check the child's one thread under ``/proc/self/task`` and
those bits). Each chunk streams its horizon in time blocks through its
worker's noise buffer, held in that worker's own process, so memory stays
bounded whatever the horizon. A block holds at most ``_ROW_DRAWS`` = 2048
normals per generator call, one row per trajectory, and at most
``_BLOCK_BYTES`` = 8 MiB per worker over all rows of its chunk.
The row rule bites on chunks narrower than 512 trajectories with horizons
longer than 1024/dim steps, where it holds the buffer to 16 KiB per
trajectory of the chunk, at a call overhead of a few percent.
Consecutive block draws concatenate to the same stream as one draw over the
whole horizon, so neither the block length, the chunk width nor the worker
count changes the bytes of the result. Second moments accumulate with the
trajectory axis last, and only on the contiguous block of r modes a caller
asks for (``modes``; all of them by default), so the accumulators take
O(width·r²) per worker and the time averages O(N·r²); each entry still sums
the same products in the same time order, and the estimate's reductions
over N run row by row as for the full matrix, because a one-mode block is
widened to two. Under ``WARNLAB_LOG=debug`` each ensemble logs its plan
once, through the ``warnlab.sde`` logger.
"""

from __future__ import annotations

import functools
import logging
import mmap
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lyapunov import model_covariance
from .spectrum import SpectralModel, spectral_abscissa

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_CHUNK = 2048  # widest chunk of trajectories
# trajectories · steps · modes per worker below which a second worker slows an
# ensemble down. Medians of alternating pairs, one worker against two, dim 1,
# 2-core x86 host: at 800 steps N = 200 took 10.4 against 12.4 ms, N = 400
# (single_mode_mc.json, 1.6e5 a worker) 19.0 against 19.2 ms, N = 800 55.9
# against 38.6 ms; at 100 steps N = 1000 took 8.6 against 9.7 ms
_MIN_CHUNK_WORK = 1 << 18
_PID_BYTES = 8  # a forked child's pid, the first bytes down its pipe
# the DeprecationWarning of os.fork in a process with threads (Python >= 3.12)
_FORK_WARNING = r"This process .*is multi-threaded, use of fork\(\)"
_BLOCK_BYTES = 8 << 20  # bytes of one worker's noise buffer, over all trajectories of its chunk
# normals one generator call draws into its row of the block: a call costs about
# 1.5 us on top of about 17 ns a draw, so a 2048-draw row spends about 4% of its
# time on the call, and a longer row only grows the buffer
_ROW_DRAWS = 2048
_MIXING_THRESHOLD = 5.0
_MAX_STEPS = 2**53  # largest horizon / dt whose round() is an exact step count
# numpy SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

log = logging.getLogger(__name__)


def splitmix64(seed: int, index: int = 0) -> int:
    """Derive a 64-bit substream seed from (seed, index) with the splitmix64
    finalizer. Deterministic across platforms and sessions."""
    z = (int(seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _word_hash(const: int, mult: int):
    """numpy SeedSequence's word hash with its running constant, on uint32
    arrays: value ^= const; const *= mult; value *= const; value ^= value >> 16."""

    def hash_word(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hash_word


def _seed_states(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every 64-bit seed
    ``s`` in ``seeds``, in one vectorized pass: numpy's entropy mixing into a
    pool of 4 words, then its output hash, on uint32 arrays. The entropy words
    are the low and high 32 bits of s (a seed below 2**32 has one word, and
    numpy then hashes a 0 in its place, the same thing); there is no spawn
    key. Returns shape (len(seeds), 4)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    hashmix = _word_hash(_INIT_A, _MULT_A)
    pool = [hashmix(e) for e in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = (np.uint32(_MIX_MULT_L) * pool[dst]
                     - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = r ^ (r >> 16)
    output = _word_hash(_INIT_B, _MULT_B)
    words = [output(pool[i % 4]) for i in range(8)]
    return np.stack(words, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state_type() -> type:
    """The ``ISeedSequence`` that hands numpy's own PCG64 seeding one
    precomputed row of ``_seed_states``, in place of the SeedSequence that
    would hash it again. Built on first use: subclassing imports numpy.random
    (about 6 MB and 10 ms), which the closed-form commands never need."""

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedState holds only the (4, uint64) state PCG64 asks for")
            return self._state

    return SeedState


def _chunk_generators(master_seed: int, c0: int, c1: int) -> list[np.random.Generator]:
    """Generators of trajectories c0 .. c1-1, each bit-identical to
    ``Generator(PCG64(splitmix64(master_seed, i)))``."""
    seed_state = _seed_state_type()
    states = _seed_states([splitmix64(master_seed, i) for i in range(c0, c1)])
    return [np.random.Generator(np.random.PCG64(seed_state(row))) for row in states]


@dataclass(frozen=True)
class EnsembleConfig:
    """Monte Carlo run parameters.

    ``burn_in`` is the fraction of each trajectory discarded before time
    averaging; trajectories always start from zero initial data.
    """

    dt: float
    horizon: float
    n_trajectories: int
    master_seed: int
    burn_in: float = 0.5

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt: must be > 0")
        if not (self.horizon > self.dt):
            raise ValueError("horizon: must exceed dt")
        if not (self.horizon / self.dt <= _MAX_STEPS):
            raise ValueError("horizon: the step count horizon / dt must be finite and at "
                             "most 2**53, where round() still counts steps exactly")
        if not (0.0 <= self.burn_in < 1.0):
            raise ValueError("burn_in: must lie in [0, 1)")
        if int(self.n_trajectories) != self.n_trajectories or self.n_trajectories < 2:
            raise ValueError("n_trajectories: need an integer >= 2")
        object.__setattr__(self, "n_trajectories", int(self.n_trajectories))
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)

    @property
    def n_steps(self) -> int:
        """Time steps of one trajectory, burn-in included."""
        return max(1, int(round(self.horizon / self.dt)))


@dataclass(frozen=True, eq=False)
class EmpiricalCovariance:
    """Hermitian covariance estimate with per-entry standard errors, both
    taken over the ensemble's per-trajectory time averages (the config's
    ``n_trajectories``); ``mixing_warning`` flags a short horizon."""

    matrix: np.ndarray
    standard_error: np.ndarray
    mixing_warning: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            raise ValueError("matrix: must be Hermitian (symmetrize before constructing)")
        diag = m.diagonal()
        if np.any(diag.real < -1e-12 * scale):
            raise ValueError("matrix: diagonal must be nonnegative")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        se = np.asarray(self.standard_error, dtype=float)
        se.flags.writeable = False
        object.__setattr__(self, "standard_error", se)


def _jordan_expm(lam: complex, m: int, t: float) -> np.ndarray:
    """Closed-form e^{tJ} for J = lam I + N: e^{t lam} times the truncated
    exponential series of the nilpotent part."""
    e = np.zeros((m, m), dtype=complex)
    base = np.exp(lam * t)
    coeff = 1.0
    for d in range(m):
        if d > 0:
            coeff = coeff * t / d
        val = base * coeff
        for i in range(m - d):
            e[i, i + d] = val
    return e


def _psd_factor(s: np.ndarray) -> np.ndarray:
    """Factor a Hermitian PSD matrix (``model_covariance``'s is exactly so) as
    L L^H via eigendecomposition, clipping eigenvalues in [-1e-12, 0) to zero
    and rejecting anything lower."""
    w, u = np.linalg.eigh(s)
    scale = max(1.0, float(w[-1]) if w.size else 1.0)
    if float(w[0]) < -1e-12 * scale:
        raise NumericalError(f"step covariance not positive semidefinite (min eig {w[0]})")
    w = np.clip(w, 0.0, None)
    return u * np.sqrt(w)


def _drift_expm(model: SpectralModel, p: float, t: float) -> np.ndarray:
    dim = model.total_dim
    e = np.zeros((dim, dim), dtype=complex)
    for _, lam, m, rows in model.modes(p):
        e[rows, rows] = _jordan_expm(lam, m, t)
    return e


def _mixing(horizon: float, abscissae) -> tuple[list[float], str | None]:
    """Relaxation times of the slowest mode a trajectory spans at each point,
    and the rule broken when one is below ``_MIXING_THRESHOLD`` (else None)."""
    ratios = [horizon * abs(a) for a in abscissae]
    short = min(ratios) < _MIXING_THRESHOLD
    return ratios, f"horizon * |spectral abscissa| < {_MIXING_THRESHOLD:g}" if short else None


def _chunk_plan(n: int, threads: int, work: int) -> tuple[int, int]:
    """Worker and chunk counts for n >= 2 trajectories of ``work`` = steps ·
    modes each.

    Workers are capped by the core count and by the work of a chunk: more
    than one worker runs only while each worker's share keeps width · work
    at ``_MIN_CHUNK_WORK`` or more, because below that forking and reaping
    the child cost more than the second core saves. Chunks are the smallest
    multiple of the workers that keeps them at most ``_CHUNK`` wide, so the
    workers get equal shares. Chunk k holds trajectories k·n // chunks to
    (k+1)·n // chunks. Both counts are capped at n // 2 to keep two or more
    in each: matmul rounds a one-row product with another kernel, so at dim
    >= 2 a lone trajectory's bits would depend on the layout. Off Linux the
    plan keeps one worker, because only there does ``_run_workers`` fork."""
    cores = (os.cpu_count() or 1) if sys.platform == "linux" else 1
    workers = min(threads, cores, n // 2, max(1, n * work // _MIN_CHUNK_WORK))
    chunks = min(n // 2, -(-n // (_CHUNK * workers)) * workers)
    return workers, chunks


def _run_workers(run_chunks, workers: int) -> None:
    """Run ``run_chunks(w)`` for every w in range(workers): worker 0 in the
    caller, every other one in a child forked for it, and return once every
    child has exited cleanly. A child's exception is raised here with its
    type and message (its traceback text as the cause), and a child killed by
    a signal or exiting nonzero without one is a RuntimeError naming the
    worker. On any failure, the caller's own chunks, an interrupt or an
    exception out of ``os.fork`` after the child exists included, the
    remaining children are killed, and every child is reaped and every pipe
    closed before the exception leaves. Python 3.12's warning of a fork in a
    process with threads is silenced (see the module docstring)."""
    children = []  # (worker, pid, read end of its pipe), none reaped yet
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            reader = os.fdopen(rfd, "rb")
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(wfd)  # so the read ends at once when there is no child
                sent = reader.read(_PID_BYTES)
                if sent:
                    children.append((w, int.from_bytes(sent, "little"), reader))
                else:
                    reader.close()
                raise
            if pid == 0:
                _child(run_chunks, w, wfd)
            os.close(wfd)
            children.append((w, pid, reader))
        run_chunks(0)
        while children:
            w, pid, reader = children[0]
            with reader:
                payload = reader.read()[_PID_BYTES:]  # empty unless the child failed
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if payload:
                error, text = pickle.loads(payload)
                raise error from RuntimeError(f"chunk worker {w} failed:\n{text}")
            if code < 0:
                raise RuntimeError(f"chunk worker {w} (pid {pid}) was killed by signal "
                                   f"{-code} ({signal.strsignal(-code)})")
            if code != 0:
                raise RuntimeError(f"chunk worker {w} (pid {pid}) exited with status {code}")
    finally:
        for _, pid, reader in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()


def _child(run_chunks, w: int, wfd: int) -> None:
    """The life of forked worker w: send its pid down the pipe ``wfd``, run
    its chunks and leave through ``os._exit``, never back into the caller's
    stack. An exception follows the pid, pickled with its traceback text;
    one that does not survive the round trip (a constructor that takes other
    arguments) goes as a RuntimeError naming its type and message."""
    status = 1
    try:
        os.write(wfd, os.getpid().to_bytes(_PID_BYTES, "little"))
        try:
            run_chunks(w)
            status = 0
        except BaseException as exc:
            text = "".join(traceback.format_exception(exc))
            try:
                payload = pickle.dumps((exc, text))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), text))
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(payload)
    finally:
        os._exit(status)


def simulate_ensemble(model: SpectralModel, p: float, config: EnsembleConfig,
                      threads: int | None = None,
                      modes: range | None = None) -> EmpiricalCovariance:
    """Estimate the stationary mode covariance by time-and-ensemble averaging.

    Runs ``config.n_trajectories`` independent trajectories from zero initial
    data with exact transitions, discards the burn-in fraction of each, and
    averages outer products of the mode coefficients. Standard errors come
    from the spread of per-trajectory time averages. Chunks of trajectories
    run on up to ``threads`` worker processes (default: all cores; see
    ``_chunk_plan``): the caller runs worker 0 and forks one child for each
    other worker (``_run_workers``), which needs Linux; elsewhere the caller
    runs every chunk. Each worker streams the noise of its chunk, in its own
    process, in time blocks of at most 2048 normals per generator call
    (``_ROW_DRAWS``) and at most 8 MiB over the chunk (``_BLOCK_BYTES``); the
    row rule sets the block for chunks narrower than 512 trajectories whose
    horizon is longer than 1024/dim steps. The caller's own resource usage
    (``ru_maxrss``) counts only its own block, not the children's. Fully
    deterministic for a fixed master seed, at any worker count and block
    length; a ``mixing_warning`` flags horizons shorter than five relaxation
    times of the slowest mode. Logs the plan (workers, forked children,
    chunks, width, block steps, buffer MiB per worker) once at debug level.

    ``modes`` is the contiguous range of mode rows whose second moments are
    accumulated (default: all of them); the result is the principal block of
    the full estimate on those rows, bit for bit, and memory is O(N·r²) for
    r accumulated modes instead of O(N·dim²). Every mode is still stepped. A
    one-mode range of a model with two or more modes is accumulated as two
    modes and sliced back: numpy averages a lone (N, 1) column over N with
    pairwise summation, but the rows of a wider block one after another, as
    the full estimate does. ValueError for an empty range, one outside
    [0, dim) or one whose step is not 1.
    """
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads: need at least 1, got {threads}")
    dim = model.total_dim
    if modes is None:
        modes = range(dim)
    if not (isinstance(modes, range) and modes.step == 1
            and 0 <= modes.start < modes.stop <= dim):
        raise ValueError(f"modes: need a nonempty range with step 1 within [0, {dim}), "
                         f"got {modes!r}")
    lo, hi = modes.start, modes.stop
    if hi - lo == 1 and dim >= 2:  # widen toward the inside of [0, dim)
        lo, hi = (lo, hi + 1) if hi < dim else (lo - 1, hi)
    r = hi - lo
    absc = spectral_abscissa(model, p)
    if absc >= 0.0:
        raise NumericalError(f"simulate_ensemble: drift not strictly stable at p={p}")
    mixing_warning = _mixing(config.horizon, [absc])[1] is not None
    n_steps = config.n_steps
    burn = int(np.floor(config.burn_in * n_steps))
    keep = n_steps - burn
    trans = _drift_expm(model, p, config.dt).T.copy()
    noise_factor = _psd_factor(model_covariance(model, p, config.dt)).T.copy()
    n = config.n_trajectories
    workers, chunks = _chunk_plan(n, threads, n_steps * dim)
    width = -(-n // chunks)
    block = max(1, min(n_steps, _ROW_DRAWS // (2 * dim), _BLOCK_BYTES // (width * dim * 16)))
    log.debug("ensemble plan at p=%r: workers=%d forked=%d chunks=%d width=%d "
              "block_steps=%d buffer_mib=%.2f", float(p), workers, workers - 1, chunks,
              width, block, width * block * dim * 16 / (1 << 20))
    shared = mmap.mmap(-1, n * r * r * 16)  # the time averages, written by every worker
    stats = np.frombuffer(shared, dtype=complex).reshape(n, r, r)

    def run_chunks(w: int) -> None:
        z = np.empty((width, block, dim), dtype=complex)
        draws = z.view(np.float64)  # the [re, im] pairs of z; generator j fills row j
        for k in range(w, chunks, workers):
            c0, c1 = k * n // chunks, (k + 1) * n // chunks
            nc = c1 - c0
            gens = _chunk_generators(config.master_seed, c0, c1)
            x = np.zeros((nc, dim), dtype=complex)
            x_read = x.T[lo:hi]  # the accumulated rows, a view that follows x
            drift, kick = np.empty_like(x), np.empty_like(x)
            # second moments accumulate with the trajectory axis last, so the
            # outer product's inner loop runs over the chunk, not over dim; the
            # state x keeps the trajectory axis first, because matmul's rounding
            # depends on the layout at dim >= 2
            xt = np.empty((r, nc), dtype=complex)
            xt_conj = np.empty_like(xt)
            acc = np.zeros((r, r, nc), dtype=complex)
            outer = np.empty_like(acc)
            for t0 in range(0, n_steps, block):
                b = min(block, n_steps - t0)
                for j, g in enumerate(gens):
                    g.standard_normal(out=draws[j, :b])
                zb = z[:nc, :b]
                zb *= _INV_SQRT2
                for s in range(b):
                    np.matmul(x, trans, out=drift)
                    np.matmul(zb[:, s, :], noise_factor, out=kick)
                    np.add(drift, kick, out=x)
                    if t0 + s >= burn:
                        np.copyto(xt, x_read)
                        np.conjugate(xt, out=xt_conj)
                        np.multiply(xt[:, None, :], xt_conj[None, :, :], out=outer)
                        acc += outer
            stats[c0:c1] = (acc / keep).transpose(2, 0, 1)

    try:
        _run_workers(run_chunks, workers)
        mean = stats.mean(axis=0)
        mat = 0.5 * (mean + mean.conj().T)
        # nothing reads stats after the mean: the deviations overwrite it and
        # their squared moduli fill one real array, half the size of stats
        stats -= mean
        dev2 = np.abs(stats)
        se = np.sqrt(np.sum(np.square(dev2, out=dev2), axis=0) / (n * (n - 1)))
    finally:
        del stats  # the mapping closes only once no array views it
        shared.close()
    read = slice(modes.start - lo, modes.stop - lo)
    return EmpiricalCovariance(matrix=mat[read, read], standard_error=se[read, read],
                               mixing_warning=mixing_warning)
