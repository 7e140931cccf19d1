import math

import numpy as np
import pytest

from bmoforge.sde import SdeModel, TamingPolicy, ellipticity_check


def test_model_broadcasts_x0():
    m = SdeModel(drift=lambda t, x: -x, sigma=1.0, dim=3, x0=1.5)
    np.testing.assert_array_equal(m.x0, [1.5, 1.5, 1.5])
    init = m.initial_states(4)
    assert init.shape == (4, 3)
    assert np.all(init == 1.5)
    init[0, 0] = 9.0
    assert m.x0[0] == 1.5  # tile copies
    assert SdeModel(drift=lambda t, x: x, sigma=2.0, dim=3).sigma.tolist() == [2.0] * 3
    assert SdeModel(drift=lambda t, x: x, sigma=[0.5, 2.0], dim=2).sigma.tolist() == [0.5, 2.0]


def test_model_validation():
    with pytest.raises(ValueError, match="dim"):
        SdeModel(drift=lambda t, x: x, sigma=1.0, dim=0)
    with pytest.raises(ValueError, match="horizon"):
        SdeModel(drift=lambda t, x: x, sigma=1.0, horizon=0.0)
    with pytest.raises(ValueError, match="finite"):
        SdeModel(drift=lambda t, x: x, sigma=1.0, x0=math.nan)
    for sigma in (math.nan, math.inf, -0.5, [1.0, math.nan], [0.5, -0.0001]):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            SdeModel(drift=lambda t, x: x, sigma=sigma, dim=2)
    for sigma in ([1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0]):
        with pytest.raises(ValueError, match=r"sigma must be a scalar or have shape \(2,\)"):
            SdeModel(drift=lambda t, x: x, sigma=sigma, dim=2)


def test_ellipticity_unit_diffusion_holds():
    # sigma^2 exactly 1/B and exactly B are inside the closed interval.
    for sigma in (1.0, 0.5, 2.0, [0.5, 1.0, 2.0]):
        m = SdeModel(drift=lambda t, x: -x, sigma=sigma, dim=3)
        assert ellipticity_check(m, bound=4.0) == {"holds": True, "bound": 4.0,
                                                   "witness": None}
    # The 1e-12 slack absorbs the rounding of sigma = sqrt(1/B).
    m = SdeModel(drift=lambda t, x: -x, sigma=math.sqrt(1.0 / 3.0))
    assert ellipticity_check(m, bound=3.0)["holds"] is True


def test_ellipticity_catches_large_and_small_sigma():
    big = SdeModel(drift=lambda t, x: x, sigma=3.0)
    out = ellipticity_check(big, bound=4.0)
    assert out["holds"] is False
    assert out["witness"] == {"coordinate": 0, "sigma_squared": 9.0}
    small = SdeModel(drift=lambda t, x: x, sigma=0.4)
    assert ellipticity_check(small, bound=4.0)["holds"] is False  # 0.16 < 1/4
    mixed = SdeModel(drift=lambda t, x: x, sigma=[1.0, 2.0, 0.4], dim=3)
    out = ellipticity_check(mixed, bound=4.0)
    assert out["holds"] is False
    assert out["witness"]["coordinate"] == 2
    assert out["witness"]["sigma_squared"] == pytest.approx(0.16)
    with pytest.raises(ValueError, match=">= 1"):
        ellipticity_check(big, bound=0.5)


def test_taming_policy_levels():
    p = TamingPolicy()  # sqrt(n) / log(n+1)
    assert p.clip_level(1) == pytest.approx(1.0 / math.log(2.0))
    assert p.decay_diagnostic(100) == pytest.approx(1.0 / math.log(101.0))
    diags = [p.decay_diagnostic(2**k) for k in range(1, 12)]
    assert all(a > b for a, b in zip(diags, diags[1:]))
    q = TamingPolicy(scale=1.0, exponent=0.25, log_power=0.0)
    assert q.clip_level(16) == pytest.approx(2.0)
    assert q.decay_diagnostic(16) == pytest.approx(0.5)


def test_taming_policy_validation():
    with pytest.raises(ValueError, match="scale"):
        TamingPolicy(scale=0.0)
    with pytest.raises(ValueError, match=r"\(0, 1/2\]"):
        TamingPolicy(exponent=0.0)
    with pytest.raises(ValueError, match=r"\(0, 1/2\]"):
        TamingPolicy(exponent=0.6)
    with pytest.raises(ValueError, match="log_power"):
        TamingPolicy(log_power=-1.0)
    with pytest.raises(ValueError, match="decays"):
        TamingPolicy(exponent=0.5, log_power=0.0)
    with pytest.raises(ValueError, match="n_steps"):
        TamingPolicy().clip_level(0)
