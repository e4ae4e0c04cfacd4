import math
import os
import signal
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.testing import assert_allclose

from warnlab import (
    EigenvalueCurve,
    EnsembleConfig,
    NumericalError,
    SpectralModel,
    simulate_ensemble,
    splitmix64,
)
from warnlab import sde
from warnlab.lyapunov import model_covariance
from warnlab.sde import (
    _chunk_generators,
    _chunk_plan,
    _drift_expm,
    _jordan_expm,
    _psd_factor,
    _seed_state_type,
    _seed_states,
)
from oracles import jordan_stationary_covariance, stationary_covariance_entry


def reference_splitmix64(seed, index):
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def single_mode_model(sigma=1.0, noise=1.0):
    return SpectralModel(
        curves=[EigenvalueCurve(0, 1.0)],
        noise_matrix=np.array([[noise]]),
        critical_index=0,
        sigma=sigma,
    )


def full_horizon_oracle(model, p, config, chunk):
    """Ensemble estimate with each chunk's noise drawn over the whole horizon
    at once, in ``chunk``-trajectory chunks: the unblocked reference that
    ``simulate_ensemble`` must reproduce bit for bit. Generators follow the
    README contract word for word, and second moments accumulate with the
    trajectory axis first, so neither the seeding nor the layout of the
    engine is reused here."""
    dim = model.total_dim
    n_steps = max(1, int(round(config.horizon / config.dt)))
    burn = int(np.floor(config.burn_in * n_steps))
    keep = n_steps - burn
    trans = _drift_expm(model, p, config.dt).T.copy()
    noise_factor = _psd_factor(model_covariance(model, p, config.dt)).T.copy()
    n = config.n_trajectories
    stats = np.empty((n, dim, dim), dtype=complex)
    for c0 in range(0, n, chunk):
        c1 = min(n, c0 + chunk)
        nc = c1 - c0
        z = np.empty((nc, n_steps, dim), dtype=complex)
        for i in range(c0, c1):
            g = np.random.Generator(np.random.PCG64(splitmix64(config.master_seed, i)))
            d = g.standard_normal((n_steps, dim, 2))
            z[i - c0] = (d[..., 0] + 1j * d[..., 1]) * (1.0 / np.sqrt(2.0))
        x = np.zeros((nc, dim), dtype=complex)
        acc = np.zeros((nc, dim, dim), dtype=complex)
        for t in range(n_steps):
            x = x @ trans + z[:, t, :] @ noise_factor
            if t >= burn:
                acc += x[:, :, None] * x[:, None, :].conj()
        stats[c0:c1] = acc / keep
    mean = stats.mean(axis=0)
    dev = stats - mean
    se = np.sqrt(np.sum(np.abs(dev) ** 2, axis=0) / (n * (n - 1)))
    return 0.5 * (mean + mean.conj().T), se


def jordan_plus_simple_model():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return SpectralModel(
        curves=[
            EigenvalueCurve(0, 1.0),
            EigenvalueCurve(1, 1.0, -1.0 + 2.0j),
            EigenvalueCurve(2, 0.0, -0.7 - 0.5j),
        ],
        noise_matrix=g @ g.conj().T / 4.0,
        critical_index=0,
        jordan_sizes={0: 2},
    )


def dim8_dense_model():
    # a size-3 Jordan block, a size-2 block and three simple modes under a
    # dense complex noise: every one of the 64 second moments is nonzero
    rng = np.random.default_rng(8)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return SpectralModel(
        curves=[
            EigenvalueCurve(0, 1.0),
            EigenvalueCurve(1, 1.0, -0.5 + 1.0j),
            EigenvalueCurve(2, 0.0, -0.7 - 0.5j),
            EigenvalueCurve(3, 0.0, -1.2 + 2.0j),
            EigenvalueCurve(4, 1.0, -2.0),
        ],
        noise_matrix=g @ g.conj().T / 8.0,
        critical_index=0,
        jordan_sizes={0: 3, 1: 2},
    )


class TestSeeding:
    def test_matches_reference_mix(self):
        for seed, index in [(0, 0), (1, 0), (0, 1), (20260813, 17), (2**63, 2**20)]:
            assert splitmix64(seed, index) == reference_splitmix64(seed, index)

    def test_outputs_distinct_across_indices(self):
        outs = {splitmix64(42, i) for i in range(10_000)}
        assert len(outs) == 10_000

    def test_stays_in_64_bit_range(self):
        for i in range(100):
            v = splitmix64(2**64 - 1, i)
            assert 0 <= v < 2**64

    def test_seed_states_match_numpy_seed_sequence(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += [splitmix64(20261018, i) for i in range(4096)]
        expected = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64)
                             for s in seeds])
        got = _seed_states(seeds)
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)

    def test_chunk_generators_follow_the_contract(self):
        # trajectory i draws from Generator(PCG64(splitmix64(master_seed, i)))
        master = 2**64 - 3
        gens = _chunk_generators(master, 5, 37)
        assert len(gens) == 32
        for i, g in zip(range(5, 37), gens):
            ref = np.random.Generator(np.random.PCG64(splitmix64(master, i)))
            assert np.array_equal(g.standard_normal(64), ref.standard_normal(64))

    def test_seed_state_serves_only_the_pcg64_request(self):
        state = _seed_state_type()(_seed_states([7])[0])
        assert np.array_equal(state.generate_state(4, np.uint64), _seed_states([7])[0])
        with pytest.raises(ValueError):
            state.generate_state(8, np.uint32)
        with pytest.raises(ValueError):
            state.generate_state(4, np.uint32)


class TestOuStep:
    def test_one_step_variance_matches_law_for_any_dt(self):
        # the transition is exact: the time-1 second moment is dt-independent;
        # burn_in = 1 - dt keeps only the last step, so the estimate is the
        # time-1 marginal from zero initial data
        exact = -np.expm1(-2.0) / 2.0
        for dt, seed in [(0.5, 10), (0.1, 11), (0.01, 12)]:
            cfg = EnsembleConfig(dt=dt, horizon=1.0, n_trajectories=20_000, master_seed=seed,
                                 burn_in=1.0 - dt)
            est = simulate_ensemble(single_mode_model(), -1.0, cfg)
            assert abs(est.matrix[0, 0] - exact) < 4 * est.standard_error[0, 0]


class TestJordanStep:
    def test_noiseless_matches_block_exponential(self):
        for lam, m, t in [(-1.0, 2, 1.0), (-0.3 + 2.0j, 3, 0.7), (-5.0, 4, 0.1)]:
            j = lam * np.eye(m) + np.diag(np.ones(m - 1), 1)
            assert_allclose(_jordan_expm(lam, m, t), scipy.linalg.expm(j * t), rtol=1e-12)

    def test_one_step_second_moment_oracle(self):
        lam, dt = -1.0, 0.5
        j = lam * np.eye(2) + np.diag([1.0], 1)
        c = np.array([[1.0, 0.2], [0.2, 0.8]])

        def integrand(s):
            e = scipy.linalg.expm(j * s)
            return e @ c @ e.conj().T

        expected, _ = scipy.integrate.quad_vec(integrand, 0.0, dt)
        model = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0)],
            noise_matrix=c,
            critical_index=0,
            jordan_sizes={0: 2},
        )
        # horizon 1.2 dt rounds to one step, kept whole with burn_in = 0
        cfg = EnsembleConfig(dt=dt, horizon=1.2 * dt, n_trajectories=20_000, master_seed=17,
                             burn_in=0.0)
        est = simulate_ensemble(model, lam, cfg)
        assert np.all(np.abs(est.matrix - expected) < 4 * est.standard_error)


class TestEnsembleConfig:
    def test_validation(self):
        good = dict(dt=0.1, horizon=10.0, n_trajectories=10, master_seed=1)
        EnsembleConfig(**good)
        for bad in (
            dict(good, dt=0.0),
            dict(good, horizon=0.05),
            dict(good, n_trajectories=1),
            dict(good, burn_in=1.0),
            dict(good, burn_in=-0.1),
        ):
            with pytest.raises(ValueError):
                EnsembleConfig(**bad)

    @pytest.mark.parametrize("dt,horizon", [(0.05, math.inf), (0.05, -math.inf),
                                            (0.05, math.nan), (5e-324, 1.0)])
    def test_non_finite_step_count_rejected(self, dt, horizon):
        # an infinite horizon / dt would reach simulate_ensemble's step count
        with pytest.raises(ValueError, match="horizon"):
            EnsembleConfig(dt=dt, horizon=horizon, n_trajectories=10, master_seed=1)

    @pytest.mark.parametrize("dt,horizon", [(1e-300, 1.0), (1.0, 2.0**53 + 2.0**2)])
    def test_step_count_beyond_exact_rounding_rejected(self, dt, horizon):
        # finite, but round(horizon / dt) no longer counts steps exactly
        with pytest.raises(ValueError, match="horizon"):
            EnsembleConfig(dt=dt, horizon=horizon, n_trajectories=10, master_seed=1)

    def test_step_count(self):
        assert EnsembleConfig(dt=1.0, horizon=2.0**53, n_trajectories=2,
                              master_seed=1).n_steps == 2**53
        assert EnsembleConfig(dt=0.05, horizon=40.0, n_trajectories=2,
                              master_seed=1).n_steps == 800

    def test_seed_is_reduced_to_64_bits(self):
        cfg = EnsembleConfig(dt=0.1, horizon=1.0, n_trajectories=2, master_seed=2**64 + 5)
        assert cfg.master_seed == 5


class TestSimulateEnsemble:
    def config(self, **kw):
        base = dict(dt=0.05, horizon=40.0, n_trajectories=400, master_seed=99)
        base.update(kw)
        return EnsembleConfig(**base)

    def test_deterministic_for_fixed_seed(self):
        model = single_mode_model()
        a = simulate_ensemble(model, -0.5, self.config())
        b = simulate_ensemble(model, -0.5, self.config())
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.standard_error, b.standard_error)

    def test_seed_changes_output(self):
        model = single_mode_model()
        a = simulate_ensemble(model, -0.5, self.config())
        b = simulate_ensemble(model, -0.5, self.config(master_seed=100))
        assert not np.array_equal(a.matrix, b.matrix)

    def test_zero_noise_gives_zero_covariance(self):
        model = single_mode_model(sigma=0.0)
        est = simulate_ensemble(model, -0.5, self.config(n_trajectories=8))
        assert np.all(est.matrix == 0.0)

    def test_single_mode_matches_closed_form(self):
        model = single_mode_model()
        est = simulate_ensemble(model, -0.5, self.config())
        exact = 1.0 / (2.0 * 0.5)
        assert abs(est.matrix[0, 0] - exact) < 3 * est.standard_error[0, 0]

    def test_decoupled_modes_match_closed_form(self):
        model = SpectralModel(
            curves=[
                EigenvalueCurve(0, 1.0),
                EigenvalueCurve(1, 0.0, -1.0 + 2.0j),
            ],
            noise_matrix=np.diag([1.0, 2.0]),
            critical_index=0,
        )
        est = simulate_ensemble(model, -0.5, self.config())
        for k, lam, b in [(0, -0.5 + 0j, 1.0), (1, -1.0 + 2.0j, 2.0)]:
            exact = stationary_covariance_entry(lam, lam, b, 1.0).real
            assert abs(est.matrix[k, k].real - exact) < 3 * est.standard_error[k, k]

    def test_jordan_model_matches_closed_form(self):
        model = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0)],
            noise_matrix=np.eye(2),
            critical_index=0,
            jordan_sizes={0: 2},
        )
        est = simulate_ensemble(model, -0.5, self.config())
        exact = jordan_stationary_covariance(-0.5, 2, np.eye(2), 1.0)
        err = np.abs(est.matrix - exact)
        assert np.all(err <= 3 * est.standard_error + 1e-12)

    def test_mixing_warning_for_short_horizon(self):
        model = single_mode_model()
        short = self.config(horizon=1.0, n_trajectories=4)
        assert simulate_ensemble(model, -0.5, short).mixing_warning
        assert not simulate_ensemble(model, -0.5, self.config(n_trajectories=4)).mixing_warning

    def test_unstable_point_signals(self):
        model = single_mode_model()
        with pytest.raises(NumericalError):
            simulate_ensemble(model, 0.25, self.config(n_trajectories=4))

    def test_estimates_are_dt_consistent(self):
        # exact stepping: halving dt moves the estimate only within noise
        model = single_mode_model()
        a = simulate_ensemble(model, -0.5, self.config(dt=0.1))
        b = simulate_ensemble(model, -0.5, self.config(dt=0.05, master_seed=7))
        gap = abs(a.matrix[0, 0] - b.matrix[0, 0])
        assert gap < 4 * (a.standard_error[0, 0] + b.standard_error[0, 0])


class TestTimeBlocks:
    MODELS = {
        "single": single_mode_model,
        "jordan2": lambda: SpectralModel(
            curves=[EigenvalueCurve(0, 1.0)],
            noise_matrix=np.array([[1.0, 0.3], [0.3, 0.5]]),
            critical_index=0,
            jordan_sizes={0: 2},
        ),
        "jordan_plus_simple": jordan_plus_simple_model,
        "dim8_dense": dim8_dense_model,
    }

    @pytest.mark.parametrize("block", ["one_step", "seven_steps", "five_step_rows",
                                       "whole_horizon"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_blocks_match_full_horizon_oracle(self, monkeypatch, name, block):
        # 8 trajectories in chunks of 3 leave a partial last chunk; 7-step
        # blocks of the byte budget and 5-step blocks of the generator row
        # leave a partial last block of the 24 steps
        model = self.MODELS[name]()
        dim = model.total_dim
        budget = {"one_step": 1, "seven_steps": 7 * 3 * dim * 16}.get(block, 1 << 40)
        row_draws = 5 * 2 * dim if block == "five_step_rows" else sde._ROW_DRAWS
        monkeypatch.setattr(sde, "_CHUNK", 3)
        monkeypatch.setattr(sde, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(sde, "_ROW_DRAWS", row_draws)
        cfg = EnsembleConfig(dt=0.05, horizon=1.2, n_trajectories=8, master_seed=2024)
        est = simulate_ensemble(model, -0.4, cfg)
        mat, se = full_horizon_oracle(model, -0.4, cfg, chunk=3)
        assert np.array_equal(est.matrix, mat)
        assert np.array_equal(est.standard_error, se)

    def test_memory_does_not_grow_with_horizon(self, monkeypatch):
        monkeypatch.setattr(sde, "_BLOCK_BYTES", 64 << 10)
        model = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0)],
            noise_matrix=np.eye(2),
            critical_index=0,
            jordan_sizes={0: 2},
        )
        peaks = {}
        for horizon in (50.0, 400.0):
            cfg = EnsembleConfig(dt=0.05, horizon=horizon, n_trajectories=16, master_seed=3)
            tracemalloc.start()
            try:
                simulate_ensemble(model, -0.5, cfg)
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a full-horizon noise buffer for the long run alone is 16 * 8000 * 2 * 16 bytes
        assert peaks[400.0] <= 1.25 * peaks[50.0]
        assert peaks[400.0] < 16 * 8000 * 2 * 16

    def test_noise_buffer_follows_the_generator_row(self):
        # one worker, one chunk of 256 dim-8 trajectories over 320 steps: the
        # byte budget alone fills 256 steps, 8 MiB; rows of 2048 normals hold
        # 128 steps, 4 MiB, and everything else stays under 2 MiB
        cfg = EnsembleConfig(dt=0.05, horizon=16.0, n_trajectories=256, master_seed=11)
        tracemalloc.start()
        try:
            simulate_ensemble(dim8_dense_model(), -0.4, cfg, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="chunk workers fork only on Linux")


def failing_ensemble(monkeypatch, in_caller=None, in_child=None):
    """Run 16 trajectories on two workers, the caller with chunks 0 and 2 and
    one child with chunks 1 and 3, calling ``in_caller`` or ``in_child`` at
    the start of each chunk of that side; return the exception the run
    raised, after checking that no child is left and no descriptor leaked."""
    monkeypatch.setattr(sde.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sde, "_MIN_CHUNK_WORK", 1)
    monkeypatch.setattr(sde, "_CHUNK", 4)
    assert _chunk_plan(16, 2, 1) == (2, 4)
    caller = os.getpid()
    real = sde._chunk_generators

    def chunk(seed, c0, c1):
        action = in_caller if os.getpid() == caller else in_child
        if action is not None:
            action()
        return real(seed, c0, c1)

    monkeypatch.setattr(sde, "_chunk_generators", chunk)
    cfg = EnsembleConfig(dt=0.05, horizon=1.0, n_trajectories=16, master_seed=5)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BaseException) as info:
        simulate_ensemble(single_mode_model(), -0.5, cfg, threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds
    return info.value


class TestChunkPool:
    @pytest.mark.parametrize("n,threads,cores,chunk,plan", [
        (10_000, 2, 2, 2048, (2, 6)),  # 5 chunks of 2048 would split 3/2
        (512, 2, 2, 2048, (2, 2)),
        (2100, 1, 2, 2048, (1, 2)),
        (10_000, 10_000, 2, 2048, (2, 6)),  # clamped to the cores
        (9, 8, 16, 2048, (4, 4)),  # fewer trajectories than threads
        (3, 8, 16, 2048, (1, 1)),  # no chunk of one trajectory
        (10, 1, 2, 3, (1, 4)),  # widths 2, 3, 2, 3, not 3, 3, 3, 1
        (50, 3, None, 7, (1, 8)),  # unknown core count: one worker
    ])
    def test_plan(self, monkeypatch, n, threads, cores, chunk, plan):
        # the work floor off: these rows pin the core and width caps
        monkeypatch.setattr(sde, "_MIN_CHUNK_WORK", 1)
        monkeypatch.setattr(sde.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(sde, "_CHUNK", chunk)
        assert _chunk_plan(n, threads, 1) == plan

    # both sides of the work floor, _MIN_CHUNK_WORK = 2**18 trajectories ·
    # steps · modes per worker, with 2048-wide chunks; each plan is given
    # with the step count it holds at, as (steps, (workers, chunks))
    @pytest.mark.parametrize("n,threads,cores,dim,plan", [
        (400, 2, 2, 1, (800, (1, 1))),  # single_mode_mc.json: one worker
        (10_000, 2, 2, 1, (1000, (2, 6))),  # perfbench's N = 1e4 single mode
        (10_000, 2, 2, 2, (1000, (2, 6))),  # and size-2 Jordan block
        (512, 2, 2, 8, (8000, (2, 2))),  # perfbench's dim-8 ensemble
        (2046, 2, 2, 1, (256, (1, 1))),
        (2048, 2, 2, 1, (256, (2, 2))),
        (255, 2, 2, 8, (256, (1, 1))),
        (256, 2, 2, 8, (256, (2, 2))),
        (3072, 4, 4, 1, (256, (3, 3))),  # three shares of the work, not four
        (10_000, 10_000, 2, 1, (1000, (2, 6))),  # still clamped to the cores
        (800, 2, 2, 1, (800, (2, 2))),  # two workers won by 30% at this size
        (1000, 2, 2, 1, (100, (1, 1))),  # and lost at this one
    ])
    def test_plan_follows_chunk_work(self, monkeypatch, n, threads, cores, dim, plan):
        monkeypatch.setattr(sde.os, "cpu_count", lambda: cores)
        assert sde._MIN_CHUNK_WORK == 2**18 and sde._CHUNK == 2048
        steps, plan = plan
        assert _chunk_plan(n, threads, steps * dim) == plan

    def test_plan_splits_evenly_in_chunks_of_two_or_more(self, monkeypatch):
        monkeypatch.setattr(sde.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(sde, "_CHUNK", 7)
        for n in range(2, 120):
            for threads in range(1, 6):
                for dim, work in ((1, 1), (1, 1024), (8, 64)):
                    monkeypatch.setattr(sde, "_MIN_CHUNK_WORK", work)
                    workers, chunks = _chunk_plan(n, threads, dim)
                    assert 1 <= workers <= min(threads, 4, max(1, n * dim // work))
                    assert chunks % workers == 0 or chunks == n // 2
                    widths = np.diff([k * n // chunks for k in range(chunks + 1)])
                    assert widths.sum() == n
                    assert 2 <= widths.min() and widths.max() <= 7
                    assert widths.max() - widths.min() <= 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        cfg = EnsembleConfig(dt=0.05, horizon=1.0, n_trajectories=4, master_seed=1)
        with pytest.raises(ValueError, match="threads"):
            simulate_ensemble(single_mode_model(), -0.5, cfg, threads=threads)

    @pytest.mark.parametrize("n", [10, 50])
    def test_bits_do_not_depend_on_workers_or_chunk_width(self, monkeypatch, n):
        # up to three worker processes on any box, however narrow the chunks,
        # and chunk widths from 2 to n
        monkeypatch.setattr(sde.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(sde, "_MIN_CHUNK_WORK", 1)
        model = dim8_dense_model()
        cfg = EnsembleConfig(dt=0.05, horizon=2.0, n_trajectories=n, master_seed=31)
        runs = {}
        for chunk in (2048, 3):
            monkeypatch.setattr(sde, "_CHUNK", chunk)
            for threads in (1, 2, 3):
                runs[chunk, threads] = simulate_ensemble(model, -0.4, cfg, threads)
        ref = runs[2048, 1]
        for est in runs.values():
            assert np.array_equal(est.matrix, ref.matrix)
            assert np.array_equal(est.standard_error, ref.standard_error)
        mat, se = full_horizon_oracle(model, -0.4, cfg, chunk=n)
        assert np.array_equal(ref.matrix, mat)
        assert np.array_equal(ref.standard_error, se)

    @pytest.mark.parametrize("n,platform", [
        (400, "linux"),  # below the work floor at 160 steps: one worker
        (4096, "darwin"),  # two workers' work, but no fork off Linux
    ])
    def test_one_worker_runs_in_the_caller_and_never_forks(self, monkeypatch, n, platform):
        monkeypatch.setattr(sde.os, "cpu_count", lambda: 2)
        cfg = EnsembleConfig(dt=0.05, horizon=8.0, n_trajectories=n, master_seed=5)
        ref = simulate_ensemble(single_mode_model(), -0.5, cfg, threads=1)
        pids = []
        real = sde._chunk_generators

        def recorded(seed, c0, c1):
            pids.append(os.getpid())
            return real(seed, c0, c1)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(sde, "_chunk_generators", recorded)
        monkeypatch.setattr(sde.os, "fork", no_fork)
        monkeypatch.setattr(sde.sys, "platform", platform)
        assert _chunk_plan(n, 2, cfg.n_steps)[0] == 1
        est = simulate_ensemble(single_mode_model(), -0.5, cfg, threads=2)
        assert pids and set(pids) == {os.getpid()}
        assert np.array_equal(est.matrix, ref.matrix)
        assert np.array_equal(est.standard_error, ref.standard_error)

    @linux_only
    def test_worker_exception_reaches_caller(self, monkeypatch):
        def boom():
            raise MemoryError("no room for chunk")

        error = failing_ensemble(monkeypatch, in_child=boom)
        assert type(error) is MemoryError
        assert str(error) == "no room for chunk"
        assert "chunk worker 1 failed" in str(error.__cause__)
        assert "no room for chunk" in str(error.__cause__)

    @linux_only
    def test_exception_that_cannot_be_rebuilt_keeps_type_and_message(self, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def boom():
            raise TwoArgError("x", "y")

        error = failing_ensemble(monkeypatch, in_child=boom)
        assert type(error) is RuntimeError
        assert str(error) == "TwoArgError: x and y"

    @linux_only
    def test_child_killed_by_a_signal_is_named(self, monkeypatch):
        error = failing_ensemble(monkeypatch,
                                 in_child=lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert type(error) is RuntimeError
        assert "chunk worker 1" in str(error)
        assert f"signal {int(signal.SIGKILL)}" in str(error)

    @linux_only
    def test_caller_failure_kills_a_running_child(self, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        start = time.monotonic()
        error = failing_ensemble(monkeypatch, in_caller=interrupt,
                                 in_child=lambda: time.sleep(60))
        assert type(error) is KeyboardInterrupt
        assert time.monotonic() - start < 30  # killed, not waited for

    @linux_only
    def test_fork_that_raises_after_the_child_exists_loses_no_child(self, monkeypatch):
        real = os.fork

        def interrupted_fork():
            pid = real()
            if pid != 0:
                raise KeyboardInterrupt  # the pid never reaches the caller
            return pid

        monkeypatch.setattr(sde.os, "fork", interrupted_fork)
        assert type(failing_ensemble(monkeypatch)) is KeyboardInterrupt

    @linux_only
    def test_fork_that_warns_as_python_3_12_does(self, monkeypatch):
        # from Python 3.12 os.fork in a process with threads warns in the
        # caller once the child exists, and this suite's error filter would
        # turn the warning into an exception out of os.fork
        real = os.fork
        forks = []

        def warning_fork():
            pid = real()
            if pid != 0:
                forks.append(pid)
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(sde.os, "cpu_count", lambda: 2)
        cfg = EnsembleConfig(dt=0.05, horizon=8.0, n_trajectories=4096, master_seed=5)
        assert _chunk_plan(4096, 2, cfg.n_steps) == (2, 2)
        ref = simulate_ensemble(single_mode_model(), -0.5, cfg, threads=1)
        monkeypatch.setattr(sde.os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate_ensemble(single_mode_model(), -0.5, cfg, threads=2)
        assert len(forks) == 1
        assert np.array_equal(est.matrix, ref.matrix)
        assert np.array_equal(est.standard_error, ref.standard_error)

    @linux_only
    def test_child_starts_with_one_thread_and_the_callers_blas_bits(self, monkeypatch):
        # numpy's OpenBLAS stops its thread pool at every fork
        # (pthread_atfork), so the child starts with one thread, and a
        # product big enough for the pool gives the caller's bits there; the
        # child reports both through the exception it sends back
        a = np.random.default_rng(3).normal(size=(256, 256))
        product = a @ a

        def probe():
            threads = len(os.listdir("/proc/self/task"))
            raise RuntimeError(f"{threads} threads, same bits: "
                               f"{np.array_equal(a @ a, product)}")

        error = failing_ensemble(monkeypatch, in_child=probe)
        assert str(error) == "1 threads, same bits: True"


class TestModeBlock:
    MODELS = {"dim8_dense": dim8_dense_model, "jordan_plus_simple": jordan_plus_simple_model}

    @pytest.mark.parametrize("chunk", [2048, 3])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_block_is_the_full_estimate_bit_for_bit(self, monkeypatch, name, threads, chunk):
        monkeypatch.setattr(sde.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sde, "_MIN_CHUNK_WORK", 1)
        monkeypatch.setattr(sde, "_CHUNK", chunk)
        model = self.MODELS[name]()
        dim = model.total_dim
        # 20 trajectories: numpy sums a lone column of 20 pairwise, which a
        # one-mode block must not do
        cfg = EnsembleConfig(dt=0.05, horizon=2.0, n_trajectories=20, master_seed=13)
        full = simulate_ensemble(model, -0.4, cfg, threads)  # modes=None
        blocks = [
            range(1, dim - 1),  # a middle range
            range(dim // 2, dim // 2 + 1),  # one middle mode, widened upward
            range(dim - 1, dim),  # the last mode, widened downward
            range(0, 1),
            range(dim),  # the full range is the default
        ]
        for modes in blocks:
            est = simulate_ensemble(model, -0.4, cfg, threads, modes)
            rows = slice(modes.start, modes.stop)
            assert est.matrix.shape == (len(modes), len(modes))
            assert np.array_equal(est.matrix, full.matrix[rows, rows])
            assert np.array_equal(est.standard_error, full.standard_error[rows, rows])
            assert est.mixing_warning == full.mixing_warning

    @pytest.mark.parametrize("modes", [range(3, 3), range(0, 9), range(-1, 2), range(7, 9),
                                       range(0, 4, 2), range(4, 0, -1), [1, 2]])
    def test_bad_range_rejected(self, modes):
        cfg = EnsembleConfig(dt=0.05, horizon=1.0, n_trajectories=4, master_seed=1)
        with pytest.raises(ValueError, match="modes"):
            simulate_ensemble(dim8_dense_model(), -0.4, cfg, 1, modes)

    def test_time_averages_scale_with_the_block(self):
        # (N, 8, 8) against (N, 2, 2) complex time averages per trajectory
        model = dim8_dense_model()
        n = 2048
        cfg = EnsembleConfig(dt=0.05, horizon=0.2, n_trajectories=n, master_seed=4)
        peaks = {}
        for modes in (None, range(3, 5)):
            tracemalloc.start()
            try:
                simulate_ensemble(model, -0.4, cfg, 1, modes)
                peaks[modes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        stats_saving = n * (8 * 8 - 2 * 2) * 16
        assert peaks[None] - peaks[range(3, 5)] >= 0.9 * stats_saving


def test_reduction_peak_stays_below_twice_the_time_averages(monkeypatch):
    # after the join the deviations overwrite the (N, r, r) time averages and
    # their squared moduli fill one real array; few live generators per
    # chunk leave the reduction to set the peak
    monkeypatch.setattr(sde.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sde, "_CHUNK", 256)
    model = SpectralModel(
        curves=[EigenvalueCurve(k, 1.0, -k) for k in range(4)],
        noise_matrix=np.eye(4),
        critical_index=0,
    )
    n = 16384
    cfg = EnsembleConfig(dt=0.1, horizon=0.2, n_trajectories=n, master_seed=5)
    tracemalloc.start()
    try:
        simulate_ensemble(model, -0.5, cfg, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 4 * 4 * 16


def test_mixing_rule_owns_ratio_and_threshold():
    ratios, broken = sde._mixing(20.0, [-0.5, -0.25, -0.125])
    assert ratios == [10.0, 5.0, 2.5]
    assert broken == "horizon * |spectral abscissa| < 5"
    assert sde._mixing(20.0, [-0.5, -0.25]) == ([10.0, 5.0], None)
