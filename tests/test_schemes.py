import math
import warnings

import numpy as np
import pytest

from bmoforge import ensemble as ensemble_module
from bmoforge import estimators, schemes
from bmoforge.ensemble import PathEnsemble
from bmoforge.estimators import markov_conditional_moment, scalar_field_registry
from bmoforge.rng import PURPOSE_OUTER, philox_stream
from bmoforge.schemes import (
    _brownian_blocks,
    _EulerMesh,
    davie_functional,
    davie_moments,
    quadrature_error,
    quadrature_modulus_proxy,
    strong_error,
)
from bmoforge.sde import SdeModel, TamingPolicy


@pytest.fixture(scope="module")
def unit_ensemble():
    return PathEnsemble(n_paths=16, n_steps=64, seed=42)


# -- solver -------------------------------------------------------------------

def paths(ensemble):
    """Brownian paths including time 0, shape (paths, n_steps + 1)."""
    inc = ensemble.increments()
    out = np.zeros((ensemble.n_paths, ensemble.n_steps + 1))
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def solve(model, level, n, ensemble):
    """The Euler kernel behind strong_error, on the whole fine grid."""
    mesh = _EulerMesh(model, level, n, ensemble.n_steps, ensemble.n_paths)
    out = np.empty((ensemble.n_steps + 1, ensemble.n_paths))
    out[0] = model.x0
    for t0, w in _brownian_blocks(ensemble, 0, ensemble.n_paths):
        m = w.shape[0] - 1
        mesh.advance(model.sigma * w, t0, out[t0 + 1 : t0 + m + 1])
    return out.T


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
@pytest.mark.parametrize("start,stop", [(0, 16), (5, 12)])
def test_brownian_blocks_carry_the_cumsum(unit_ensemble, monkeypatch, block, start, stop):
    monkeypatch.setattr(schemes, "_TIME_BLOCK", block)
    rows, t_next = [np.zeros(stop - start)], 0
    for t0, w in _brownian_blocks(unit_ensemble, start, stop):
        assert t0 == t_next
        np.testing.assert_array_equal(w[0], rows[-1])
        rows.extend(w[1:].copy())
        t_next = t0 + w.shape[0] - 1
    assert t_next == 64
    joined = np.stack(rows, axis=1)
    assert joined.tobytes() == paths(unit_ensemble)[start:stop].tobytes()


def test_solver_identity_on_brownian(unit_ensemble):
    model = SdeModel(drift=np.zeros_like, sigma=1.0, x0=0.0)
    sol = solve(model, math.inf, 8, unit_ensemble)
    assert np.array_equal(sol, paths(unit_ensemble))


def test_solver_constant_drift(unit_ensemble):
    model = SdeModel(drift=lambda x: 2.0 * np.ones_like(x), sigma=1.0, x0=0.5)
    sol = solve(model, math.inf, 16, unit_ensemble)
    expect = 0.5 + 2.0 * np.linspace(0.0, 1.0, 65)[None, :] + paths(unit_ensemble)
    np.testing.assert_allclose(sol, expect, atol=1e-12)


def test_solver_linear_ode_nodes(unit_ensemble):
    model = SdeModel(drift=np.negative, sigma=0.0, x0=1.0)
    sol = solve(model, math.inf, 4, unit_ensemble)
    nodes = sol[:, ::16]
    expect = [(1.0 - 0.25) ** j for j in range(5)]
    np.testing.assert_allclose(nodes, np.tile(expect, (16, 1)), rtol=1e-12)


def test_solver_applies_clip(unit_ensemble):
    model = SdeModel(drift=lambda x: 100.0 * np.ones_like(x), sigma=1.0, x0=0.0)
    policy = TamingPolicy(scale=1.0, exponent=0.25, log_power=0.0)  # level 2 at n=16
    sol = solve(model, policy.clip_level(16), 16, unit_ensemble)
    expect = 2.0 * np.linspace(0.0, 1.0, 65)[None, :] + paths(unit_ensemble)
    np.testing.assert_allclose(sol, expect, atol=1e-12)


# -- quadrature error ---------------------------------------------------------

def test_quadrature_error_vanishes_for_flat_fields(unit_ensemble):
    v = quadrature_error(scalar_field_registry["one"], unit_ensemble, [4])
    assert v.shape == (1, 16)
    assert np.all(v == 0.0)


def test_quadrature_error_vanishes_on_finest_mesh(unit_ensemble):
    v = quadrature_error(scalar_field_registry["sign"], unit_ensemble, [64])
    assert np.all(v == 0.0)


def test_quadrature_error_increment_bound(unit_ensemble):
    # |V_1 - V_0| = |V_1| <= 2 for any field bounded by 1.
    v = quadrature_error(scalar_field_registry["sign"], unit_ensemble, [8])
    assert np.abs(v[0]).max() <= 2.0 + 1e-12


def test_quadrature_error_chunk_invariance(unit_ensemble, monkeypatch):
    f = scalar_field_registry["sign"]
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 2048 * unit_ensemble.n_steps)
    a = quadrature_error(f, unit_ensemble, [4, 8])
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 5 * unit_ensemble.n_steps)
    b = quadrature_error(f, unit_ensemble, [4, 8])
    assert np.array_equal(a, b)


def test_quadrature_error_validation(unit_ensemble):
    f = scalar_field_registry["sign"]
    with pytest.raises(ValueError, match="mesh mismatch"):
        quadrature_error(f, unit_ensemble, [4, 5])
    with pytest.raises(ValueError, match="nonempty"):
        quadrature_error(f, unit_ensemble, [])


# -- shift averaging ----------------------------------------------------------

def test_davie_constant_field_cancels(unit_ensemble):
    samples = davie_functional(scalar_field_registry["one"], [0.7], unit_ensemble)
    assert np.all(samples == 0.0)


def test_davie_linear_field_telescopes(unit_ensemble):
    # |B_t + 0.5| / 4 stays below 1 on this ensemble, so nothing is clipped,
    # and scaling by a power of 2 keeps the telescoping sum exact.
    g = lambda y: y / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = davie_functional(g, [0.5], unit_ensemble)
    np.testing.assert_array_equal(samples, np.full((1, 16), 0.125))


def test_davie_clip_warns_once(unit_ensemble, monkeypatch):
    g = lambda y: 2.0 * np.ones_like(y)
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 4 * unit_ensemble.n_steps)
    with pytest.warns(UserWarning, match="clipping") as record:
        samples = davie_functional(g, [0.5, 0.25], unit_ensemble)
    # Four chunks and two shifts clip, but the call warns once.
    assert len(record) == 1
    # After the clip both terms saturate at 1, so the diff cancels.
    assert np.all(samples == 0.0)


def test_davie_sign_field_bounded(unit_ensemble):
    samples = davie_functional(scalar_field_registry["sign"], [0.3], unit_ensemble)
    assert samples.shape == (1, 16)
    assert np.all(np.abs(samples) <= 2.0 + 1e-12)


def test_davie_validation(unit_ensemble):
    with pytest.raises(ValueError, match="nonempty"):
        davie_functional(scalar_field_registry["sign"], [], unit_ensemble)


def per_shift_davie(g, shift, ensemble):
    """One shift at a time, drawing the whole ensemble per call."""
    inc = ensemble.increments()
    b = np.zeros((ensemble.n_paths, ensemble.n_steps))
    np.cumsum(inc[:, :-1], axis=1, out=b[:, 1:])
    shifted = np.asarray(g(b + shift), dtype=float)
    plain = np.asarray(g(b), dtype=float)
    # The clip is the identity where |g| <= 1, so clipping always is the same.
    np.clip(shifted, -1.0, 1.0, out=shifted)
    np.clip(plain, -1.0, 1.0, out=plain)
    return (shifted - plain).sum(axis=1) * ensemble.dt


@pytest.mark.parametrize("field", ["sign", "coordinate", "inv-abs-clip"])
@pytest.mark.parametrize("chunk_size", [4096, 5])
def test_davie_multi_shift_matches_per_shift_formula(field, chunk_size, monkeypatch):
    # "coordinate" hands back its argument and exceeds 1, so the clip of the
    # unshifted term must not leak into the paths the next shift reads.
    ens = PathEnsemble(n_paths=23, n_steps=50, seed=4)
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", chunk_size * ens.n_steps)
    g = scalar_field_registry[field]
    shifts = [0.05, 0.1, 0.2, 0.4]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fused = davie_functional(g, shifts, ens)
        expect = np.stack([per_shift_davie(g, x, ens) for x in shifts])
    assert fused.shape == (4, 23)
    assert fused.tobytes() == expect.tobytes()


def test_davie_moments_frozen():
    out = davie_moments(np.array([1.0, -1.0, 2.0]))
    assert out[2].value == pytest.approx(2.0)
    assert out[4].value == pytest.approx(6.0)
    assert out[2].stderr == pytest.approx(1.0)  # sqrt(3) / sqrt(3 samples)
    with pytest.raises(ValueError, match="two samples"):
        davie_moments(np.array([1.0]))
    with pytest.raises(ValueError, match="even"):
        davie_moments(np.array([1.0, 2.0]), ms=(3,))


# -- coupled strong error -----------------------------------------------------

def test_strong_error_zero_drift_is_exactly_zero(unit_ensemble):
    model = SdeModel(drift=np.zeros_like, sigma=1.0, x0=0.0)
    res = strong_error(model, TamingPolicy(), [4, 8, 16], unit_ensemble)
    assert res.mean_sup_error == [0.0, 0.0, 0.0]
    assert res.l2 == [0.0, 0.0, 0.0]
    assert res.fit is None


def full_buffer_strong_error(model, taming, ns, fine_factor, ensemble):
    """Every solution written out on the whole fine grid, then one sup."""
    n_ref = fine_factor * max(ns)
    w = paths(ensemble)

    def solve(n):
        level = taming.clip_level(n)
        ratio = n_ref // n
        out = np.empty_like(w)
        out[:, 0] = model.x0
        state = np.full(ensemble.n_paths, model.x0)
        drift_times = ensemble.dt * np.arange(1, ratio + 1)
        for j in range(n):
            b_vals = np.clip(model.drift(state), -level, level)
            a = j * ratio
            c = state - model.sigma * w[:, a]
            out[:, a + 1 : a + ratio + 1] = (
                c[:, None]
                + b_vals[:, None] * drift_times[None, :]
                + model.sigma * w[:, a + 1 : a + ratio + 1]
            )
            state = out[:, a + ratio].copy()
        return out

    ref = solve(n_ref)
    return [np.abs(solve(n) - ref).max(axis=1) for n in ns]


FULL_BUFFER_CASES = [
    # drift, taming, x0, sigma, ns, fine_factor, time block, path group
    ("sign", TamingPolicy(), 0.0, 1.0, [2, 8, 32], 4, 256, 4096),
    # Odd ratios, coarse steps straddling time blocks, path-group boundaries.
    ("sign", TamingPolicy(), 0.3, 1.5, [3, 6, 12], 5, 7, 5),
    ("sign", TamingPolicy(scale=1e6), -0.4, 0.5, [3, 6, 12], 5, 1, 4),
    ("neg-linear", TamingPolicy(scale=1e6), 1.5, 0.8, [3, 6, 12], 5, 1000, 4096),
    ("neg-linear", TamingPolicy(), 0.0, 1.0, [2, 8, 32], 4, 7, 6),
    # Clip level 0.023 at the reference's n = 128: taming bites on every mesh.
    ("sign", TamingPolicy(scale=0.01), 0.0, 1.0, [2, 8, 32], 4, 256, 4096),
]


def test_strong_error_matches_full_buffer_reference(monkeypatch):
    for drift, taming, x0, sigma, ns, fine_factor, block, group in FULL_BUFFER_CASES:
        monkeypatch.setattr(schemes, "_TIME_BLOCK", block)
        monkeypatch.setattr(schemes, "_PATH_GROUP", group)
        ens = PathEnsemble(n_paths=13, n_steps=fine_factor * max(ns), seed=8)
        model = SdeModel(drift=scalar_field_registry[drift], sigma=sigma, x0=x0)
        res = strong_error(model, taming, ns, ens)
        sup = full_buffer_strong_error(model, taming, ns, fine_factor, ens)
        assert res.mean_sup_error == [float(e.mean()) for e in sup]
        assert res.stderr == [float(e.std(ddof=1) / math.sqrt(13)) for e in sup]
        assert res.l2 == [float(np.sqrt(np.mean(e**2))) for e in sup]
        assert res.l4 == [float(np.mean(e**4) ** 0.25) for e in sup]
        assert all(v > 0.0 for v in res.mean_sup_error)


def test_strong_error_linear_ode_rate(unit_ensemble):
    model = SdeModel(drift=np.negative, sigma=0.0, x0=1.0)
    res = strong_error(model, TamingPolicy(scale=1e6), [4, 8, 16], unit_ensemble)
    # Deterministic problem: every path shows the same error.
    assert res.stderr == [0.0, 0.0, 0.0]
    assert res.mean_sup_error[0] == pytest.approx(0.04858027424390737, rel=1e-9)
    assert 1.1 <= res.fit.slope <= 1.35
    assert res.fit.r_squared > 0.99
    assert res.ns == [4, 8, 16]
    assert [len(v) for v in (res.mean_sup_error, res.stderr, res.l2, res.l4)] == [3] * 4


def test_strong_error_validation(unit_ensemble):
    model = SdeModel(drift=np.zeros_like, sigma=1.0)
    taming = TamingPolicy(scale=1e6)
    with pytest.raises(ValueError, match="positive"):
        strong_error(model, taming, [], unit_ensemble)
    with pytest.raises(ValueError, match="positive"):
        strong_error(model, taming, [0, 4], unit_ensemble)
    # The reference mesh is the ensemble's 64 steps: max(ns) may be 32, not 64.
    assert strong_error(model, taming, [4, 32], unit_ensemble).mean_sup_error == [0.0, 0.0]
    with pytest.raises(ValueError, match="at least 2 \\* max\\(ns\\) = 128"):
        strong_error(model, taming, [4, 64], unit_ensemble)
    with pytest.raises(ValueError, match="mesh mismatch"):
        strong_error(model, taming, [3, 8], unit_ensemble)
    with pytest.raises(ValueError, match="mesh mismatch"):
        solve(model, math.inf, 5, unit_ensemble)


# -- one draw per path chunk --------------------------------------------------

@pytest.fixture
def count_draws(monkeypatch):
    calls = []
    increments = PathEnsemble.increments

    def counted(self, start=0, stop=None):
        calls.append((start, stop))
        return increments(self, start, stop)

    monkeypatch.setattr(PathEnsemble, "increments", counted)
    return calls


def test_davie_draws_each_chunk_once(count_draws, monkeypatch):
    ens = PathEnsemble(n_paths=23, n_steps=20, seed=2)
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 5 * ens.n_steps)
    davie_functional(scalar_field_registry["sign"], [0.05, 0.1, 0.2, 0.4], ens)
    assert len(count_draws) == math.ceil(23 / 5)
    assert count_draws == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]


def test_quadrature_error_draws_each_chunk_once(count_draws, monkeypatch):
    # All meshes come from one draw per chunk and match one call per mesh.
    ens = PathEnsemble(n_paths=23, n_steps=20, seed=2)
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 5 * ens.n_steps)
    f = scalar_field_registry["coordinate"]
    meshes = [4, 5, 20]
    v = quadrature_error(f, ens, meshes)
    assert count_draws == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]
    for n, row in zip(meshes, v):
        assert np.array_equal(row, quadrature_error(f, ens, [n])[0])


@pytest.fixture
def count_normals(monkeypatch):
    """Shapes of the normal draws made by the nested estimators."""
    shapes = []

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size=None):
            shapes.append(() if size is None else tuple(np.atleast_1d(size).tolist()))
            return self.rng.standard_normal(size)

    def counted(*args):
        return Counted(philox_stream(*args))

    monkeypatch.setattr(estimators, "philox_stream", counted)
    monkeypatch.setattr(schemes, "philox_stream", counted)
    return shapes


@pytest.mark.parametrize("budget", [1, 7, 64, 10**6])
def test_path_chunks_stay_within_the_budget(count_draws, count_normals, monkeypatch, budget):
    # A chunk spans at most max(budget, one path) elements, whatever the budget.
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", budget)
    ens = PathEnsemble(n_paths=23, n_steps=16, seed=2)
    field = scalar_field_registry["sign"]
    davie_functional(field, [0.1, 0.2], ens)
    quadrature_error(field, ens, [4])
    per_path = ens.n_steps
    assert count_draws
    assert all((stop - start) * per_path <= max(budget, per_path)
               for start, stop in count_draws)
    halves = len(count_draws) // 2
    assert count_draws[:halves] == count_draws[halves:]  # both consumers chunk alike
    assert [start for start, _ in count_draws[:halves]] == list(
        range(0, 23, max(1, budget // per_path)))
    # The inner draws of the nested estimators obey the same budget: paths
    # of 16 steps (markov) and of 16 and 8 fine steps (proxy anchors 0, 0.5).
    markov_conditional_moment(field, 1.0, [0.0, 0.5], n_inner=40, n_steps=16, seed=2)
    quadrature_modulus_proxy(field, [2, 4], seed=2, n_outer=2, n_inner=40,
                             anchor_times=(0.0, 0.5), fine_per_block=4)
    inner = [shape for shape in count_normals if shape]
    assert {shape[1] for shape in inner} == {16, 8}
    assert all(math.prod(shape) <= max(budget, shape[1]) for shape in inner)
    assert sum(shape[0] for shape in inner) == 40 * (2 + 2 * 2)  # each inner path once


def test_davie_long_paths_fit_the_materialization_cap(monkeypatch):
    # The cap refuses all 20 paths in one chunk but admits a budget chunk.
    monkeypatch.setattr(ensemble_module, "_MAX_MATERIALIZE_BYTES", 2**21)
    ens = PathEnsemble(n_paths=20, n_steps=20000, seed=8)
    assert ensemble_module._CHUNK_ELEMENTS * 8 <= ensemble_module._MAX_MATERIALIZE_BYTES < 20 * 20000 * 8
    with pytest.raises(MemoryError, match="resource cap"):
        ens.increments()
    g = scalar_field_registry["sign"]
    shifts = [0.1, 0.4]
    samples = davie_functional(g, shifts, ens)
    monkeypatch.undo()  # the whole-ensemble oracle needs the default cap
    expect = np.stack([per_shift_davie(g, x, ens) for x in shifts])
    assert samples.tobytes() == expect.tobytes()


def test_strong_error_opens_each_stream_once(monkeypatch):
    # Every path is drawn in one pass over time, whatever the path groups.
    monkeypatch.setattr(schemes, "_PATH_GROUP", 4)
    monkeypatch.setattr(schemes, "_TIME_BLOCK", 7)
    opened = []

    def counted(seed, purpose, index, subindex=0):
        opened.append((purpose, index, subindex))
        return philox_stream(seed, purpose, index, subindex)

    def refused(self, start=0, stop=None):
        raise AssertionError("strong_error called increments()")

    monkeypatch.setattr(ensemble_module, "philox_stream", counted)
    monkeypatch.setattr(PathEnsemble, "increments", refused)
    ens = PathEnsemble(n_paths=11, n_steps=4 * 16, seed=2)
    model = SdeModel(drift=np.sign, sigma=1.0)
    strong_error(model, TamingPolicy(), [4, 8, 16], ens)
    assert opened == [(PURPOSE_OUTER, i, 0) for i in range(11)]


# -- quadrature modulus proxy -------------------------------------------------

def test_quadrature_modulus_flat_field_is_zero():
    res = quadrature_modulus_proxy(
        scalar_field_registry["one"], [2, 4], seed=0,
        n_outer=3, n_inner=8, anchor_times=(0.0, 0.5), fine_per_block=2,
    )
    assert res.values == [0.0, 0.0]
    assert res.fit is None


def test_quadrature_modulus_sign_field_structure():
    res = quadrature_modulus_proxy(
        scalar_field_registry["sign"], [2, 4, 8], seed=3,
        n_outer=4, n_inner=16, anchor_times=(0.0, 0.5), fine_per_block=2,
    )
    assert res.ns == [2, 4, 8]
    assert all(v > 0.0 for v in res.values)
    assert all(np.isfinite(res.stderrs))
    assert res.fit is not None


def test_quadrature_modulus_chunk_invariance(monkeypatch):
    # Non-dyadic anchors give inner paths of 80, 72 and 56 fine steps, so a
    # budget of 17 paths of 80 steps draws the 40 inner paths in chunks of
    # 17, 18 and 24 paths: every anchor crosses a chunk edge.
    kwargs = dict(seed=5, n_outer=3, n_inner=40, anchor_times=(0.0, 0.1, 0.3),
                  fine_per_block=2)
    f = scalar_field_registry["sign"]
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 1024 * 80)
    a = quadrature_modulus_proxy(f, [10, 20, 40], **kwargs)
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 17 * 80)
    b = quadrature_modulus_proxy(f, [10, 20, 40], **kwargs)
    assert [v.hex() for v in a.values] == [v.hex() for v in b.values]
    assert [e.hex() for e in a.stderrs] == [e.hex() for e in b.stderrs]


def test_quadrature_modulus_validation():
    f = scalar_field_registry["sign"]
    with pytest.raises(ValueError, match="mesh mismatch"):
        quadrature_modulus_proxy(f, [3, 8], seed=0, n_outer=2, n_inner=4)
    with pytest.raises(ValueError, match="not a mesh point"):
        quadrature_modulus_proxy(f, [4, 8], seed=0, n_outer=2, n_inner=4,
                                 anchor_times=(0.125,))
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        quadrature_modulus_proxy(f, [4, 8], seed=0, n_outer=2, n_inner=4,
                                 anchor_times=(1.0,))
    with pytest.raises(ValueError, match="ns must not be empty"):
        quadrature_modulus_proxy(f, [], seed=0, n_outer=2, n_inner=4)
    with pytest.raises(ValueError, match="anchor_times must not be empty"):
        quadrature_modulus_proxy(f, [4, 8], seed=0, n_outer=2, n_inner=4, anchor_times=())
