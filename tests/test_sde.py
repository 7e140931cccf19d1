import math

import pytest

from bmoforge.sde import SdeModel, TamingPolicy, ellipticity_check


def test_model_validation():
    m = SdeModel(drift=lambda x: x, sigma=2, x0=1)
    assert (m.sigma, m.x0) == (2.0, 1.0)
    assert type(m.sigma) is float and type(m.x0) is float
    for x0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            SdeModel(drift=lambda x: x, sigma=1.0, x0=x0)
    for sigma in (math.nan, math.inf, -0.5, -0.0001):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            SdeModel(drift=lambda x: x, sigma=sigma)


def test_ellipticity_unit_diffusion_holds():
    # sigma^2 exactly 1/B and exactly B are inside the closed interval.
    for sigma in (1.0, 0.5, 2.0):
        m = SdeModel(drift=lambda x: -x, sigma=sigma)
        assert ellipticity_check(m, bound=4.0) == {"holds": True, "bound": 4.0}
    # The 1e-12 slack absorbs the rounding of sigma = sqrt(1/B).
    m = SdeModel(drift=lambda x: -x, sigma=math.sqrt(1.0 / 3.0))
    assert ellipticity_check(m, bound=3.0)["holds"] is True


def test_ellipticity_catches_large_and_small_sigma():
    big = SdeModel(drift=lambda x: x, sigma=3.0)
    assert ellipticity_check(big, bound=4.0) == {"holds": False, "bound": 4.0}
    small = SdeModel(drift=lambda x: x, sigma=0.4)
    assert ellipticity_check(small, bound=4.0)["holds"] is False  # 0.16 < 1/4
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
