"""Tests for the shared search engine: the [Re, Im] codec, the restart loop
and its budget accounting, and budget 1 in every search built on it."""

import numpy as np
import pytest

from cbnorm_lab import _search, cbnorm, holofun, mconvex, opspace
from cbnorm_lab.cbnorm import RADIUS_CAP, level_sup
from cbnorm_lab.mconvex import MatrixSet, SeparationCertificate, check_certificate, find_certificate
from cbnorm_lab.opspace import (
    ConcreteOperatorSpace,
    OpSpaceElement,
    OpSpaceMatrix,
    dual_functional_norm,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)


def test_codec_round_trip():
    rng = np.random.default_rng(4)
    arr = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    vec = _search.encode(arr)
    assert vec.dtype == np.float64 and vec.shape == (48,)
    assert np.array_equal(_search.decode(vec, arr.shape), arr)


def test_to_sphere():
    assert np.allclose(np.linalg.norm(_search.to_sphere(np.array([3.0, 4.0]))), 1.0)
    zero = np.zeros(3)
    assert _search.to_sphere(zero) is zero


def _counted_run(budget, seed):
    calls = [0]

    def objective(stack):
        calls[0] += len(stack)  # one evaluation per row
        return -np.sum((stack - 0.3) ** 2, axis=1)

    start = lambda rng: rng.standard_normal(4)
    runs = list(_search.restarts(objective, _search.to_sphere, start, budget, seed, 5))
    return calls[0], runs


@pytest.mark.parametrize("budget", [1, 2, 3, 17])
def test_restarts_spend_exactly_the_budget(budget):
    calls, runs = _counted_run(budget, seed=8)
    assert calls == budget
    assert runs and all(vec is not None for vec, _ in runs)
    again_calls, again = _counted_run(budget, seed=8)
    assert again_calls == calls
    assert len(again) == len(runs)
    for (vec, value), (vec2, value2) in zip(runs, again):
        assert np.array_equal(vec, vec2) and value == value2


@pytest.mark.parametrize("budget", [0, -3])
def test_restarts_without_budget_yield_nothing(budget):
    calls, runs = _counted_run(budget, seed=8)
    assert calls == 0 and runs == []


def test_restart_streams_are_distinct():
    start = lambda rng: rng.standard_normal(3)
    first = [
        next(_search.restarts(lambda s: np.zeros(len(s)), lambda v: v, start, 1, 2, stream))[0]
        for stream in (1, 2)
    ]
    assert not np.array_equal(first[0], first[1])


def test_level_sup_spends_its_budget_when_one_gradient_needs_more(monkeypatch):
    # At level 8 one gradient takes 2m² = 128 probes of 1 KB; with 100
    # evaluations the start point takes one and the probes the other 99, in
    # stacks of _STACK_BYTES.
    rows = []
    disk_problem = cbnorm._disk_problem

    def counted(f, m):
        objective, *rest = disk_problem(f, m)

        def counting(stack):
            rows.append(len(stack))
            return objective(stack)

        return (counting, *rest)

    monkeypatch.setattr(cbnorm, "_disk_problem", counted)
    w = level_sup(holofun.PowerSeries([1.0]), 8, 100, seed=5)
    per = _search._STACK_BYTES // 1024
    assert rows == [1, *[per] * (99 // per), 99 % per]
    assert w.level == 8 and 0.0 < w.value <= RADIUS_CAP + 1e-12


def _level_sup_disk():
    w = level_sup(holofun.PowerSeries([1.0]), 2, 1, seed=3)
    assert 0.0 < w.value <= RADIUS_CAP + 1e-12


def _level_sup_space():
    space = space_row(2)
    f = holofun.GeometricPhi(space, np.array([0.3, 0.4]), 0.5)
    w = level_sup(f, 2, 1, seed=3)
    assert w.level == 2 and w.value >= 0.0


def _dual_functional_norm():
    value = dual_functional_norm(space_min_linf(2), np.array([1.0, 1.0]), 1, seed=3)
    assert 0.0 <= value <= 2.0 + 1e-9


def _find_certificate():
    s = space_scalar()
    k = MatrixSet(s, (OpSpaceElement(s, np.array([1.0])).as_level1(),))
    outside = find_certificate(k, OpSpaceMatrix(s, np.full((1, 1, 1), 2.0 + 0j)), 1, seed=3)
    assert outside is not None  # the first warm start already separates
    inside = find_certificate(k, OpSpaceMatrix(s, np.full((1, 1, 1), 0.5 + 0j)), 1, seed=3)
    assert inside is None


@pytest.mark.parametrize(
    "search", [_level_sup_disk, _level_sup_space, _dual_functional_norm, _find_certificate]
)
def test_searches_run_at_budget_one(search):
    search()


def _objectives_of(monkeypatch, module, run):
    """The objectives that `run` hands to `restarts` through `module`."""
    captured = []
    real = module.restarts

    def capturing(objective, *args):
        captured.append(objective)
        return real(objective, *args)

    monkeypatch.setattr(module, "restarts", capturing)
    run()
    assert captured
    return captured


def _random_stack(rng, n):
    # Seven random rows and a zero row, where every objective reads 0.
    stack = rng.standard_normal((8, n))
    stack[3] = 0.0
    return stack


def _assert_stack_is_row_by_row(objective, stack):
    values = objective(stack)
    rows = np.array([objective(stack[i : i + 1])[0] for i in range(len(stack))])
    assert values.shape == (len(stack),)
    assert np.array_equal(values, rows)  # bit for bit
    return values


def _custom_space():
    basis = np.array([[[1.0, 0.5], [0.0, 1.0]], [[0.0, 1.0j], [2.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    return ConcreteOperatorSpace(basis)


@pytest.mark.parametrize("space", [space_min_linf(2), space_mk(2), _custom_space()], ids=lambda s: s.kind)
@pytest.mark.parametrize("level", [1, 2])
def test_certificate_objective_stack_equals_rows(monkeypatch, space, level):
    # A target inside the hull defeats both warm starts, so the search runs.
    rng = np.random.default_rng(31)
    gens = tuple(opspace._random_matrix_ball(rng, space, m, 0.7) for m in (1, 2))
    k = MatrixSet(space, gens)
    x0 = mconvex.hull_element(k, mconvex.random_representation(k, level, rng))
    [objective] = _objectives_of(
        monkeypatch, mconvex, lambda: find_certificate(k, x0, 20, seed=4)
    )
    shape = (level, level, space.dim)
    stack = _random_stack(rng, 2 * level * level * space.dim)
    values = _assert_stack_is_row_by_row(objective, stack)
    assert values[3] == 0.0
    grids = _search.decode(stack, shape)
    for g_index, g in enumerate(k.generators):
        norms = mconvex._pairing_norms(grids, g)
        for row, grid in enumerate(grids):
            verdict = check_certificate(SeparationCertificate(space, grid), k, x0)
            assert verdict.generator_values[g_index] == norms[row]


@pytest.mark.parametrize("space", [space_min_linf(3), space_row(2), space_mk(2), _custom_space()], ids=lambda s: s.kind)
def test_dual_norm_objective_stack_equals_rows(monkeypatch, space):
    rng = np.random.default_rng(32)
    phi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    [objective] = _objectives_of(
        monkeypatch, _search, lambda: dual_functional_norm(space, phi, 30, seed=5)
    )
    values = _assert_stack_is_row_by_row(objective, _random_stack(rng, 2 * space.dim))
    assert values[3] == 0.0 and np.all(values >= 0.0)
