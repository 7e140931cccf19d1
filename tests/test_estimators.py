import math

import numpy as np
import pytest

from bmoforge import ensemble as ensemble_module
from bmoforge.config import KIND_SCHEMAS
from bmoforge.estimators import (
    empirical_rho_grid,
    holder_exponent_fit,
    inner_means,
    loglog_fit,
    markov_conditional_moment,
    pooled_slope,
    rate_fit,
    scalar_field_registry,
)


def test_registry_fields():
    # Fields are autonomous: every entry takes the state alone.
    x = np.array([-2.0, 0.0, 0.5])
    expect = {
        "zero": [0.0, 0.0, 0.0],
        "one": [1.0, 1.0, 1.0],
        "const": [1.0, 1.0, 1.0],
        "coordinate": x,
        "neg-linear": -x,
        "sign": [-1.0, 0.0, 1.0],
        "inv-abs-clip": [0.5, 100.0, 2.0],  # reciprocal magnitude clips at 100
    }
    assert set(scalar_field_registry) == set(expect)
    for name, values in expect.items():
        np.testing.assert_array_equal(scalar_field_registry[name](x), values)
    assert scalar_field_registry["const"] is scalar_field_registry["one"]
    # Every field and drift a config can name resolves here.
    named = {choice for schema in KIND_SCHEMAS.values()
             for key, spec in schema.items() if key in ("field", "drift")
             for choice in spec.choices}
    assert {"zero", "neg-linear", "const", "inv-abs-clip"} <= named
    assert named <= set(scalar_field_registry)


def test_inner_means_keeps_leading_axes():
    # Rows of one call share the inner paths; each row is reduced on its own.

    def tail(b):
        return np.sign(b).sum(axis=1) / 8.0

    states = [0.0, 0.5, -1.0]
    means, errs = inner_means(tail, states, seed=3, sub=1, n_inner=40, n_steps=8, h=1 / 8)
    both, both_errs = inner_means(lambda b: np.stack([tail(b), 2.0 * tail(b)]), states,
                                  seed=3, sub=1, n_inner=40, n_steps=8, h=1 / 8)
    assert means.shape == errs.shape == (3,)
    assert both.shape == both_errs.shape == (2, 3)
    assert both[0].tobytes() == means.tobytes() and both_errs[0].tobytes() == errs.tobytes()
    assert both[1] == pytest.approx(2.0 * means)
    # Another substream draws other continuations.
    other, _ = inner_means(tail, states, seed=3, sub=2, n_inner=40, n_steps=8, h=1 / 8)
    assert other.tolist() != means.tolist()
    # The Markov moment is the max of these means over the outer states.
    est = markov_conditional_moment(scalar_field_registry["sign"], 1.0, states,
                                    n_inner=40, n_steps=8, seed=3, stream_index=1)
    assert est.value == means.max()


def test_markov_moment_exact_for_flat_fields():
    zero = scalar_field_registry["zero"]
    est = markov_conditional_moment(zero, 1.0, [0.0, 3.0], n_inner=16, n_steps=8, seed=0)
    assert est.value == 0.0
    assert est.stderr == 0.0
    one = scalar_field_registry["one"]
    est = markov_conditional_moment(one, 1.5, [1.0], n_inner=16, n_steps=8, seed=0)
    assert est.value == pytest.approx(1.5)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_markov_moment_gaussian_oracle():
    # E | integral_0^1 B dr | = sqrt(2/(3 pi)) for the coordinate field.
    f = scalar_field_registry["coordinate"]
    est = markov_conditional_moment(f, 1.0, [0.0], n_inner=4000, n_steps=512, seed=7)
    exact = math.sqrt(2.0 / (3.0 * math.pi))
    assert abs(est.value - exact) <= 3.0 * est.stderr


def test_markov_moment_chunk_invariance(monkeypatch):
    f = scalar_field_registry["sign"]
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 1024 * 32)
    a = markov_conditional_moment(f, 1.0, [0.0], n_inner=500, n_steps=32, seed=5)
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 17 * 32)
    b = markov_conditional_moment(f, 1.0, [0.0], n_inner=500, n_steps=32, seed=5)
    assert a.value == b.value
    assert a.stderr == b.stderr


def test_markov_moment_grows_with_horizon():
    f = scalar_field_registry["coordinate"]
    vals = [
        markov_conditional_moment(f, span, [0.0], n_inner=2000, n_steps=128, seed=3).value
        for span in (0.5, 1.0, 2.0)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_markov_moment_stderr_shrinks():
    f = scalar_field_registry["coordinate"]
    small = markov_conditional_moment(f, 1.0, [0.0], n_inner=800, n_steps=64, seed=9)
    large = markov_conditional_moment(f, 1.0, [0.0], n_inner=3200, n_steps=64, seed=9)
    ratio = large.stderr / small.stderr
    assert 0.3 <= ratio <= 0.7  # 4x samples halve the stderr, up to noise


def test_markov_moment_proxy_and_validation():
    f = scalar_field_registry["coordinate"]
    xs = [0.0, 1.0, -2.0]
    hi = markov_conditional_moment(f, 1.0, xs, n_inner=64, n_steps=16, seed=1, proxy="max")
    q = markov_conditional_moment(f, 1.0, xs, n_inner=64, n_steps=16, seed=1,
                                  proxy="quantile")
    assert q.value <= hi.value
    # Past 100 outer states the 0.99 quantile falls below the max.
    many = np.linspace(-3.0, 3.0, 200)
    hi = markov_conditional_moment(f, 1.0, many, n_inner=16, n_steps=4, seed=1)
    q = markov_conditional_moment(f, 1.0, many, n_inner=16, n_steps=4, seed=1,
                                  proxy="quantile")
    assert q.value < hi.value
    with pytest.raises(ValueError, match="proxy"):
        markov_conditional_moment(f, 1.0, xs, n_inner=64, n_steps=16, seed=1, proxy="mean")
    with pytest.raises(ValueError, match="span > 0"):
        markov_conditional_moment(f, 0.0, xs, n_inner=64, n_steps=16, seed=1)
    with pytest.raises(ValueError, match="dim"):
        markov_conditional_moment(f, 1.0, np.zeros((2, 2)), n_inner=64, n_steps=16,
                                  seed=1)
    with pytest.raises(ValueError, match="outer state"):
        markov_conditional_moment(f, 1.0, [], n_inner=64, n_steps=16, seed=1)


def test_rho_grid_exact_fields():
    zero = scalar_field_registry["zero"]
    grid = empirical_rho_grid(zero, [0.5, 1.0, 1.5], n_outer=4, n_inner=8,
                              steps_per_unit=8, seed=2)
    assert np.all(grid.values[np.triu_indices(3, 1)] == 0.0)
    assert not grid.monotone_violations
    one = scalar_field_registry["one"]
    grid = empirical_rho_grid(one, [0.5, 1.0, 2.0], n_outer=4, n_inner=8,
                              steps_per_unit=8, seed=2)
    # | integral of 1 | = t - s exactly, for every pair.
    for i, j, want in [(0, 1, 0.5), (0, 2, 1.5), (1, 2, 1.0)]:
        assert grid.values[i, j] == pytest.approx(want)
    assert not grid.monotone_violations


def test_rho_grid_validation():
    one = scalar_field_registry["one"]
    with pytest.raises(ValueError, match="increasing"):
        empirical_rho_grid(one, [1.0, 0.5], n_outer=2, n_inner=8, steps_per_unit=4, seed=0)
    with pytest.raises(ValueError, match="increasing"):
        empirical_rho_grid(one, [1.0], n_outer=2, n_inner=8, steps_per_unit=4, seed=0)


def test_holder_exponent_sign_field():
    # Scale invariance of sign makes the modulus linear in the window width.
    f = scalar_field_registry["sign"]
    grid = empirical_rho_grid(f, [0.25, 0.5, 1.0, 2.0], n_outer=24, n_inner=600,
                              steps_per_unit=256, seed=29)
    fit = holder_exponent_fit(grid)
    assert 0.8 <= fit.slope <= 1.1
    assert not grid.monotone_violations


def test_holder_exponent_clipped_reciprocal():
    # Singular reciprocal field: modulus grows like the square root of the window.
    f = scalar_field_registry["inv-abs-clip"]
    grid = empirical_rho_grid(f, [0.25, 0.5, 1.0, 2.0], n_outer=24, n_inner=600,
                              steps_per_unit=256, seed=29)
    fit = holder_exponent_fit(grid)
    assert 0.4 <= fit.slope <= 0.7


def test_holder_fit_needs_positive_values():
    zero = scalar_field_registry["zero"]
    grid = empirical_rho_grid(zero, [0.5, 1.0], n_outer=2, n_inner=8,
                              steps_per_unit=4, seed=0)
    with pytest.raises(ValueError, match="positive grid values"):
        holder_exponent_fit(grid)


def test_loglog_fit_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = loglog_fit(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="equal length"):
        loglog_fit(x, x[:2])
    with pytest.raises(ValueError, match="all equal"):
        loglog_fit(np.ones(3), np.arange(3.0))


def test_rate_fit_exact_and_frozen():
    ns = [8, 16, 32, 64, 128, 256, 512]
    fit = rate_fit(ns, [1.0 / n for n in ns])
    assert fit.slope == pytest.approx(1.0)
    fit = rate_fit(ns, [n ** -0.5 for n in ns])
    assert fit.slope == pytest.approx(0.5)
    # The reference envelope sqrt(log(n+1)/n) fits to a visibly smaller
    # exponent over this range; the log factor drags the slope down.
    fit = rate_fit(ns, [math.sqrt(math.log(n + 1) / n) for n in ns])
    assert fit.slope == pytest.approx(0.3762074091, abs=1e-9)


def test_rate_fit_validation():
    with pytest.raises(ValueError, match="three"):
        rate_fit([4, 8], [1.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        rate_fit([4, 8, 16], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="ns must be positive"):
        rate_fit([0, 8, 16], [1.0, 0.5, 0.2])


def test_pooled_slope_frozen():
    slope, se = pooled_slope([(2.0, 0.1), (2.2, 0.2)])
    assert slope == pytest.approx(2.04)
    assert se == pytest.approx(math.sqrt(1.0 / 125.0))
    with pytest.raises(ValueError, match="at least one"):
        pooled_slope([])
