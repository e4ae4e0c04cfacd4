"""The windowed multiplication-model path against the whole-grid formulas.

``build_weyl_sequence``, ``weyl_defect`` and the sweep's ``_StableShift``
work only on the grid nodes a vector is nonzero on, and sum over the whole
grid. The oracles here evaluate the same formulas on every grid node, with
numpy temporaries the size of the grid, and must agree bit for bit.
"""

import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from warnlab import (
    MultiplicationSymbolModel,
    NumericalError,
    build_weyl_sequence,
    load_config,
    make_p_grid,
    parse_quantity,
    run_parameter_sweep,
    weyl_defect,
)
from warnlab.lyapunov import _StableShift
from warnlab.spectrum import _weyl_support

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def whole_grid_weyl(model, k, center):
    window, bump = _weyl_support(model, k, center)
    u = np.zeros_like(model.grid)
    u[window] = bump
    nrm2 = float(np.sum(model.weights * u * u))
    return u / np.sqrt(nrm2)


def whole_grid_defect(model, u, lambda_star):
    return float(np.sqrt(np.sum(model.weights * (model.values - lambda_star) ** 2 * u * u)))


def whole_grid_gaussian(model):
    h = np.exp(-0.5 * model.grid**2)
    return h / np.sqrt(float(np.sum(model.weights * h * h)))


def whole_grid_sweep(model, p_values, k):
    """norm, gaussian_pairing and weyl_pairing:k at each p, every array over
    the whole grid."""
    gaussian = model.weights * np.abs(whole_grid_gaussian(model)) ** 2
    weyl = model.weights * np.abs(whole_grid_weyl(model, k, float(model.argmax_points[0]))) ** 2
    rows = []
    for p in p_values:
        s = p + model.values
        assert not np.any(s >= 0.0)
        rows.append([float(1.0 / (2.0 * -np.max(s))),
                     float(np.sum(gaussian / ((4.0 * s) * s))),
                     float(np.sum(weyl / (2.0 * -s)))])
    return np.array(rows).T


def _symbol(shape, a, b, c=0.0):
    """-a (x - b)^2 with an interior argmax; min(c, -a (x - b)^2), a plateau
    at c whose argmax set spans every node within sqrt(-c / a) of b; or
    a x + b, whose argmax is the last node (a > 0) or the first one (a < 0)."""
    if shape == "quadratic":
        return lambda x: -a * np.square(x - b)
    if shape == "plateau":
        return lambda x: np.minimum(c, -a * np.square(x - b))
    sign = 1.0 if shape == "increasing" else -1.0
    return lambda x: sign * a * x + b


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["function", "table", "plateau"]))
    shape = draw(st.sampled_from(["quadratic", "increasing", "decreasing"]))
    a, b = draw(st.floats(0.1, 3.0)), draw(st.floats(-1.0, 1.0))
    lo, width = draw(st.floats(-4.0, 0.0)), draw(st.floats(0.5, 6.0))
    hi = lo + width
    if kind == "function":
        spacing = draw(st.floats(1e-3, 2e-2))
        return MultiplicationSymbolModel.from_function(_symbol(shape, a, b), lo, hi, spacing)
    if kind == "table":
        seed = draw(st.integers(0, 2**32 - 1))
        steps = np.random.default_rng(seed).uniform(1e-3, 2e-2, int(width / 1e-2))
        x = lo + np.concatenate(([0.0], np.cumsum(steps)))
        return MultiplicationSymbolModel.from_table(x, _symbol(shape, a, b)(x))
    # a flat top of half-width r, up to half the grid wide, anywhere on it
    r, mid = draw(st.floats(0.0, width / 4.0)), lo + draw(st.floats(0.0, width))
    return MultiplicationSymbolModel.from_function(_symbol("plateau", a, mid, -a * r * r),
                                                   lo, hi, draw(st.floats(1e-3, 2e-2)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(models(), st.integers(1, 60), st.floats(1e-6, 2.0), st.floats(0.1, 0.9))
def test_windowed_path_matches_the_whole_grid_formulas(model, k, d0, factor):
    center = float(model.argmax_points[0])
    try:
        window, _ = _weyl_support(model, k, center)
    except NumericalError:
        assume(False)
    # a monotone symbol puts the argmax, and so a clipped window, at an end
    event("window clipped at the first node" if window.start == 0 else
          "window clipped at the last node" if window.stop == model.grid.size else
          "window inside the grid")
    event("argmax set of several nodes" if model.argmax_points.size > 1 else
          "argmax at one node")
    p_star = -model.esssup
    p_values = make_p_grid(p_star, p_star - d0, 6, factor=factor)
    k_name = f"weyl_pairing:{k}"
    sweep = run_parameter_sweep(model, p_values, ["norm", "gaussian_pairing", k_name])
    expected = whole_grid_sweep(model, p_values.tolist(), k)
    for name, want in zip(["norm", "gaussian_pairing", k_name], expected):
        got = sweep.quantities[name]
        assert np.array_equal(got, want), name
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want.tolist()], name
    vector = build_weyl_sequence(model, k, center)
    u = whole_grid_weyl(model, k, center)
    assert vector.window == window
    assert vector.coefficients.tobytes() == u.tobytes()
    for lambda_star in (model.esssup, model.esssup - 0.5):
        got = weyl_defect(model, vector, lambda_star)
        assert repr(got) == repr(whole_grid_defect(model, u, lambda_star))


def test_stable_shift_allocates_less_than_one_grid_array():
    # a temporary the size of the grid at any point of the sweep fails this
    model = load_config(CONFIG_DIR / "quadratic_symbol.json").model
    limit = model.grid.size * model.grid.itemsize
    assert limit == 20001 * 8
    grid = make_p_grid(-model.esssup, -0.0625, 8)
    for q in ["norm", "gaussian_pairing", "weyl_pairing:2", "weyl_pairing:5",
              "weyl_pairing:10"]:
        shift = _StableShift(model, [parse_quantity(q)])
        shift.at(float(grid[0]))
        tracemalloc.start()
        try:
            for p in grid.tolist():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                shift.at(p)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < limit, (q, p, peak)
        finally:
            tracemalloc.stop()
