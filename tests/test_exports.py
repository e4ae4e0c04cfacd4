import warnlab
import warnlab.lyapunov


def test_every_export_resolves_once():
    names = warnlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(warnlab, name) is not None, name


def test_deleted_multiplication_closed_forms_stay_gone():
    # the analytic sweep is the one multiplication-model path
    for name in ("multiplication_covariance_norm", "quadratic_form_pairing",
                 "stationary_pairing"):
        assert name not in warnlab.__all__
        assert not hasattr(warnlab, name)
        assert not hasattr(warnlab.lyapunov, name)
