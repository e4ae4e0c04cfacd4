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
    jordan_stationary_covariance,
    simulate_ensemble,
    splitmix64,
    stationary_covariance_entry,
)
from warnlab.sde import _jordan_expm


def reference_splitmix64(seed, index):
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def single_mode_model(sigma=1.0, noise=1.0):
    return SpectralModel(
        curves=[EigenvalueCurve(0, lambda p: complex(p))],
        noise_matrix=np.array([[noise]]),
        critical_index=0,
        sigma=sigma,
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
            curves=[EigenvalueCurve(0, lambda p: complex(p))],
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
                EigenvalueCurve(0, lambda p: complex(p)),
                EigenvalueCurve(1, lambda p: -1.0 + 2.0j),
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
            curves=[EigenvalueCurve(0, lambda p: complex(p))],
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
