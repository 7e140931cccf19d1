import hashlib
import json
import math

import pytest

from bmoforge import bounds
from bmoforge.bounds import (
    PartitionTooCoarseError,
    energy_bound,
    jn_moment_bound,
    khasminskii_log_bound,
    maximal_bound,
    maximal_sup_bound,
    pathwise_bound,
    saturating_exp,
    stopping_pair_bound,
    vmo_log_bound,
)
from bmoforge.config import parse_config
from bmoforge.experiments import run_experiment


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
    assert khasminskii_log_bound(1.0, [0.2, 0.3]) == pytest.approx(math.log(25.0 / 14.0))
    assert khasminskii_log_bound(2.0, []) == 0.0
    assert khasminskii_log_bound(0.0, [5.0, 7.0]) == 0.0


def test_khasminskii_product_refuses_coarse_cells():
    with pytest.raises(PartitionTooCoarseError, match="cell 1"):
        khasminskii_log_bound(2.0, [0.1, 0.5])
    with pytest.raises(ValueError, match="negative"):
        khasminskii_log_bound(1.0, [-0.1])


def test_vmo_exp_bound_values():
    # (22 lam)^p = 1 at lam = 1/22: 2^(1+1) = 4.
    assert vmo_log_bound(1.0 / 22.0, 2.0, 1.0) == pytest.approx(math.log(4.0))
    assert vmo_log_bound(5.0, 2.0, 0.0) == pytest.approx(math.log(2.0))


def test_bounds_saturate_to_inf():
    assert saturating_exp(vmo_log_bound(10.0, 2.0, 1e6)) == math.inf
    assert jn_moment_bound(1e200, 3) == math.inf
    assert saturating_exp(khasminskii_log_bound(1.0, [1.0 - 1e-16] * 5000)) > 0


def test_saturating_exp_cuts_at_709():
    assert saturating_exp(709.0) == math.exp(709.0)
    # Finite logs above the cut, such as the exp-vmo bounds with log rhs
    # 709.13-709.67 that verify-finite writes, saturate too.
    assert saturating_exp(709.13) == math.inf
    assert saturating_exp(math.log(1.7976931348623157e308)) == math.inf
    assert saturating_exp(math.inf) == math.inf
    assert saturating_exp(-math.inf) == 0.0


@pytest.mark.parametrize("lam, moduli", [
    (0.3, [0.1, 0.7, 2.5, 0.0, 1.2]),
    (1.7, [0.05, 0.3, 0.41, 0.2]),
    (0.02, [3.0] * 7),
    (2.0, []),
])
def test_khasminskii_log_bound_is_the_inline_formula(lam, moduli):
    # Oracle: the sum written out as khasminskii_check once wrote it inline.
    inline = -sum(math.log1p(-lam * rho) for rho in moduli)
    assert khasminskii_log_bound(lam, moduli).hex() == float(inline).hex()


@pytest.mark.parametrize("lam, p, w_total", [
    (0.02, 1, 3.7), (0.3, 2, 0.9), (2.0, 2, 11.4), (0.3, 3, 1e-3), (0.02, 1.5, 0.0),
])
def test_vmo_log_bound_is_the_inline_formula(lam, p, w_total):
    # Oracle: the expression written out as exp_vmoa_check once wrote it inline.
    inline = math.log(2.0) * (1.0 + (22.0 * lam) ** p * w_total)
    assert vmo_log_bound(lam, p, w_total).hex() == inline.hex()


def test_log_bounds_validate():
    with pytest.raises(ValueError, match="lam"):
        khasminskii_log_bound(-0.1, [0.1])
    with pytest.raises(ValueError, match="lam and w_total"):
        vmo_log_bound(-0.1, 2.0, 1.0)
    with pytest.raises(ValueError, match="lam and w_total"):
        vmo_log_bound(0.1, 2.0, -1.0)
    with pytest.raises(ValueError, match="p must be >= 1"):
        vmo_log_bound(0.1, 0.5, 1.0)
    with pytest.raises(PartitionTooCoarseError, match="cell 0"):
        khasminskii_log_bound(1.0, [1.0])


def test_linear_bound_values():
    assert maximal_bound(0.5) == 5.5
    assert maximal_sup_bound(0.5) == 2.0
    assert pathwise_bound(0.5) == 11.0
    assert stopping_pair_bound(1.0, 0.5) == 3.5
    # 3! * 0.5^3 = 0.75
    assert energy_bound(0.5, 3) == 0.75


# A pinned verify-finite run with the benchmark's battery parameters: seed 1,
# 20 depth-5 cases, no violation with the paper's constants.
_BATTERY = {"kind": "verify-finite", "seed": 1,
            "params": {"depth": 5, "branching": 2, "p_list": [1, 2, 3], "lambda_list": [0.3],
                       "process_kind": "gaussian", "random_transitions": True,
                       "n_processes": 20}}


def _battery(tmp_path):
    cfg = parse_config(json.dumps(_BATTERY))
    cfg.out = str(tmp_path)
    manifest = run_experiment(cfg)
    digest = hashlib.sha256((tmp_path / "checks.jsonl").read_bytes()).hexdigest()
    return manifest.extra["violations"], digest


@pytest.fixture(scope="module")
def unmutated(tmp_path_factory):
    return _battery(tmp_path_factory.mktemp("unmutated"))


# Each mutant scales one paper constant (two for 2B + 3C / 8) and names the
# violations it causes on the pinned run; 0 means the records change but
# every case still holds.
MUTANTS = {
    "maximal-11-to-1": ({"MAXIMAL_CONSTANT": 1.0}, 1),
    "maximal-11-to-8": ({"MAXIMAL_CONSTANT": 8.0}, 0),
    "maximal-sup-4-to-0.4": ({"MAXIMAL_SUP_CONSTANT": 0.4}, 17),
    "stopping-pair-b-over-8": ({"STOPPING_PAIR_B": 0.25}, 0),
    "stopping-pair-c-over-8": ({"STOPPING_PAIR_C": 0.375}, 0),
    "stopping-pair-over-8": ({"STOPPING_PAIR_B": 0.25, "STOPPING_PAIR_C": 0.375}, 20),
    # Pathwise 22 -> 1.0 or 2.2 changes no byte: the check reports
    # lhs = rhs = 0 when no case has a positive gap, so only a violating
    # mutant shows that the constant is read.
    "pathwise-22-to-0.5": ({"PATHWISE_CONSTANT": 0.5}, 20),
    "energy-1-to-0.5": ({"ENERGY_CONSTANT": 0.5}, 20),
    "jn-11-to-0.5": ({"JN_CONSTANT": 0.5}, 22),
    "vmo-22-to-0.1": ({"VMO_CONSTANT": 0.1}, 44),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_paper_constant_has_one_definition(tmp_path, monkeypatch, unmutated, name):
    constants, violations = MUTANTS[name]
    assert unmutated[0] == 0
    for constant, value in constants.items():
        monkeypatch.setattr(bounds, constant, value)
    mutated = _battery(tmp_path)
    assert mutated[1] != unmutated[1]
    assert mutated[0] == violations
