import math

import numpy as np
import pytest

from bmoforge.sde import SdeModel, TamingPolicy, ellipticity_check


def unit_diffusion(t, x):
    return np.ones_like(x)


def test_model_broadcasts_x0():
    m = SdeModel(drift=lambda t, x: -x, diffusion=unit_diffusion, dim=3, x0=1.5)
    np.testing.assert_array_equal(m.x0, [1.5, 1.5, 1.5])
    init = m.initial_states(4)
    assert init.shape == (4, 3)
    assert np.all(init == 1.5)
    init[0, 0] = 9.0
    assert m.x0[0] == 1.5  # tile copies


def test_model_validation():
    with pytest.raises(ValueError, match="dim"):
        SdeModel(drift=lambda t, x: x, diffusion=unit_diffusion, dim=0)
    with pytest.raises(ValueError, match="horizon"):
        SdeModel(drift=lambda t, x: x, diffusion=unit_diffusion, horizon=0.0)
    with pytest.raises(ValueError, match="finite"):
        SdeModel(drift=lambda t, x: x, diffusion=unit_diffusion, x0=math.nan)


def test_ellipticity_unit_diffusion_holds():
    m = SdeModel(drift=lambda t, x: -x, diffusion=unit_diffusion)
    out = ellipticity_check(m, bound=2.0, seed=0)
    assert out["holds"] is True
    assert out["witness"] is None
    assert out["n_probe"] == 512


def test_ellipticity_catches_large_and_small_sigma():
    big = SdeModel(drift=lambda t, x: x, diffusion=lambda t, x: 3.0 * np.ones_like(x))
    out = ellipticity_check(big, bound=4.0, seed=1)
    assert out["holds"] is False
    assert out["witness"]["sigma_squared"] == pytest.approx(9.0)
    small = SdeModel(drift=lambda t, x: x, diffusion=lambda t, x: 0.4 * np.ones_like(x))
    out = ellipticity_check(small, bound=4.0, seed=1)
    assert out["holds"] is False  # 0.16 < 1/4
    assert set(out["witness"]) == {"time", "state", "coordinate", "sigma_squared"}
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
