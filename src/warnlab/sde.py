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

Trajectories run in near-equal chunks on a pool of worker threads, at most
one per core and one per ``_MIN_CHUNK_WORK`` trajectories · modes
(``_chunk_plan``); a lone worker runs on the pool too, so every ensemble
takes the same path. Chunks share no state: worker w runs chunks w,
w + workers, ... and writes only their rows of the per-trajectory time
averages, which reduce over all N in index order after the join. Each chunk
streams its horizon in time blocks through its worker's noise buffer of at
most ``_BLOCK_BYTES``, so memory stays bounded whatever the horizon.
Consecutive block draws concatenate to the same stream as one draw over the
whole horizon, so neither the block length, the chunk width nor the thread
count changes the bytes of the result. Second moments accumulate with the
trajectory axis last; each entry still sums the same products in the same
time order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lyapunov import model_covariance
from .spectrum import SpectralModel, spectral_abscissa

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_CHUNK = 2048  # widest chunk of trajectories
# chunk width · dim below which a second worker thread slows an ensemble down
_MIN_CHUNK_WORK = 1024
_BLOCK_BYTES = 8 << 20  # bytes of one worker's noise buffer, over all trajectories of its chunk
_MIXING_THRESHOLD = 5.0
# numpy SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
        if not np.isfinite(self.horizon / self.dt):
            raise ValueError("horizon: the step count horizon / dt must be finite")
        if not (0.0 <= self.burn_in < 1.0):
            raise ValueError("burn_in: must lie in [0, 1)")
        if int(self.n_trajectories) != self.n_trajectories or self.n_trajectories < 2:
            raise ValueError("n_trajectories: need an integer >= 2")
        object.__setattr__(self, "n_trajectories", int(self.n_trajectories))
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)


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
    """Factor a Hermitian PSD matrix as L L^H via eigendecomposition, clipping
    eigenvalues in [-1e-12, 0) to zero and rejecting anything lower."""
    s = 0.5 * (s + s.conj().T)
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


def _chunk_plan(n: int, threads: int, dim: int) -> tuple[int, int]:
    """Worker and chunk counts for n >= 2 trajectories of a dim-mode model.

    Workers are capped by the core count and by the work of a chunk: more
    than one worker runs only while each worker's share keeps width · dim at
    ``_MIN_CHUNK_WORK`` or more, because below that each step's numpy calls
    are bound by the interpreter lock and a second thread only slows the
    first. Chunks are the smallest multiple of the workers that keeps them at
    most ``_CHUNK`` wide, so the workers get equal shares. Chunk k holds
    trajectories k·n // chunks to (k+1)·n // chunks. Both counts are capped at
    n // 2 to keep two or more in each: matmul rounds a one-row product with
    another kernel, so at dim >= 2 a lone trajectory's bits would depend on
    the layout."""
    workers = min(threads, os.cpu_count() or 1, n // 2, max(1, n * dim // _MIN_CHUNK_WORK))
    chunks = min(n // 2, -(-n // (_CHUNK * workers)) * workers)
    return workers, chunks


def simulate_ensemble(model: SpectralModel, p: float, config: EnsembleConfig,
                      threads: int | None = None) -> EmpiricalCovariance:
    """Estimate the stationary mode covariance by time-and-ensemble averaging.

    Runs ``config.n_trajectories`` independent trajectories from zero initial
    data with exact transitions, discards the burn-in fraction of each, and
    averages outer products of the mode coefficients. Standard errors come
    from the spread of per-trajectory time averages. Chunks of trajectories
    run on up to ``threads`` worker threads (default: all cores; see
    ``_chunk_plan``). Fully deterministic for a fixed master seed, at any
    thread count; a ``mixing_warning`` flags horizons shorter than five
    relaxation times of the slowest mode.
    """
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads: need at least 1, got {threads}")
    absc = spectral_abscissa(model, p)
    if absc >= 0.0:
        raise NumericalError(f"simulate_ensemble: drift not strictly stable at p={p}")
    mixing_warning = _mixing(config.horizon, [absc])[1] is not None
    dim = model.total_dim
    n_steps = max(1, int(round(config.horizon / config.dt)))
    burn = int(np.floor(config.burn_in * n_steps))
    keep = n_steps - burn
    trans = _drift_expm(model, p, config.dt).T.copy()
    noise_factor = _psd_factor(model_covariance(model, p, config.dt)).T.copy()
    n = config.n_trajectories
    workers, chunks = _chunk_plan(n, threads, dim)
    width = -(-n // chunks)
    block = max(1, min(n_steps, _BLOCK_BYTES // (width * dim * 16)))
    stats = np.empty((n, dim, dim), dtype=complex)

    def run_chunks(w: int) -> None:
        z = np.empty((width, block, dim), dtype=complex)
        draws = z.view(np.float64)  # the [re, im] pairs of z; generator j fills row j
        for k in range(w, chunks, workers):
            c0, c1 = k * n // chunks, (k + 1) * n // chunks
            nc = c1 - c0
            gens = _chunk_generators(config.master_seed, c0, c1)
            x = np.zeros((nc, dim), dtype=complex)
            drift, kick = np.empty_like(x), np.empty_like(x)
            # second moments accumulate with the trajectory axis last, so the
            # outer product's inner loop runs over the chunk, not over dim; the
            # state x keeps the trajectory axis first, because matmul's rounding
            # depends on the layout at dim >= 2
            xt = np.empty((dim, nc), dtype=complex)
            xt_conj = np.empty_like(xt)
            acc = np.zeros((dim, dim, nc), dtype=complex)
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
                        np.copyto(xt, x.T)
                        np.conjugate(xt, out=xt_conj)
                        np.multiply(xt[:, None, :], xt_conj[None, :, :], out=outer)
                        acc += outer
            stats[c0:c1] = (acc / keep).transpose(2, 0, 1)

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_chunks, range(workers)))  # re-raises a worker's exception
    mean = stats.mean(axis=0)
    mat = 0.5 * (mean + mean.conj().T)
    dev = stats - mean
    se = np.sqrt(np.sum(np.abs(dev) ** 2, axis=0) / (n * (n - 1)))
    return EmpiricalCovariance(matrix=mat, standard_error=se, mixing_warning=mixing_warning)
