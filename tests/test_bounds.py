import math

import pytest

from bmoforge.bounds import (
    PartitionTooCoarseError,
    jn_moment_bound,
    khasminskii_product,
    vmo_exp_bound,
)


def test_jn_moment_bound_values():
    # 2! * (11 * 0.1)^2 = 2.42
    assert jn_moment_bound(0.1, 2) == pytest.approx(2.42)
    assert jn_moment_bound(0.0, 5) == 0.0
    assert jn_moment_bound(1.0, 1) == pytest.approx(11.0)


def test_jn_moment_bound_validation():
    with pytest.raises(ValueError, match="rho"):
        jn_moment_bound(-0.1, 2)
    with pytest.raises(ValueError, match="positive integer"):
        jn_moment_bound(1.0, 0)
    with pytest.raises(ValueError, match="positive integer"):
        jn_moment_bound(1.0, 1.5)


def test_khasminskii_product_values():
    # (1 - 0.2)^-1 (1 - 0.3)^-1 = 25/14
    assert khasminskii_product(1.0, [0.2, 0.3]) == pytest.approx(25.0 / 14.0)
    assert khasminskii_product(2.0, []) == 1.0
    assert khasminskii_product(0.0, [5.0, 7.0]) == 1.0


def test_khasminskii_product_refuses_coarse_cells():
    with pytest.raises(PartitionTooCoarseError, match="cell 1"):
        khasminskii_product(2.0, [0.1, 0.5])
    with pytest.raises(ValueError, match="negative"):
        khasminskii_product(1.0, [-0.1])


def test_vmo_exp_bound_values():
    # (22 lam)^p = 1 at lam = 1/22: 2^(1+1) = 4.
    assert vmo_exp_bound(1.0 / 22.0, 2.0, 1.0) == pytest.approx(4.0)
    assert vmo_exp_bound(5.0, 2.0, 0.0) == pytest.approx(2.0)


def test_bounds_saturate_to_inf():
    assert vmo_exp_bound(10.0, 2.0, 1e6) == math.inf
    assert jn_moment_bound(1e200, 3) == math.inf
    assert khasminskii_product(1.0, [1.0 - 1e-16] * 5000) > 0
