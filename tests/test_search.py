"""Tests for the shared search engine: the [Re, Im] codec, the restart loop
and its budget accounting, the ascent from a degenerate start, budget 1
in every search built on it, and the rejection of budgets that are not
integers."""

import numpy as np
import pytest

from cbnorm_lab import _search, cbnorm, holofun, opspace
from cbnorm_lab.cbnorm import RADIUS_CAP, level_sup
from cbnorm_lab.errors import InvalidInputError
from cbnorm_lab.mconvex import MatrixSet, find_certificate
from cbnorm_lab.opspace import (
    OpSpaceElement,
    OpSpaceMatrix,
    dual_functional_norm,
    space_min_linf,
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


def _grants(monkeypatch):
    """(asked, granted) of every Budget.spend call, in order."""
    grants = []
    spend = _search.Budget.spend

    def recording(self, k=1):
        granted = spend(self, k)
        grants.append((k, granted))
        return granted

    monkeypatch.setattr(_search.Budget, "spend", recording)
    return grants


def _counted_run(monkeypatch, budget, seed):
    calls = [0]

    def objective(x):
        calls[0] += 1  # one evaluation per point

        def gradient():
            calls[0] += x.size  # a gradient costs n evaluations
            return -2.0 * (x - 0.3)

        return -np.sum((x - 0.3) ** 2), gradient

    grants = _grants(monkeypatch)
    start = lambda rng: rng.standard_normal(4)
    runs = list(_search.restarts(objective, _search.to_sphere, start, budget, seed, 5))
    # A gradient granted fewer than its n evaluations is spent without being taken.
    short = sum(granted for asked, granted in grants if asked == 4 and granted < 4)
    assert sum(granted for _, granted in grants) == max(budget, 0)
    return calls[0] + short, runs


@pytest.mark.parametrize("budget", [1, 2, 3, 17])
def test_restarts_spend_exactly_the_budget(monkeypatch, budget):
    calls, runs = _counted_run(monkeypatch, budget, seed=8)
    assert calls == budget
    assert runs and all(vec is not None for vec, _ in runs)
    again_calls, again = _counted_run(monkeypatch, budget, seed=8)
    assert again_calls == calls
    assert len(again) == len(runs)
    for (vec, value), (vec2, value2) in zip(runs, again):
        assert np.array_equal(vec, vec2) and value == value2


@pytest.mark.parametrize("budget", [0, -3])
def test_restarts_without_budget_yield_nothing(monkeypatch, budget):
    calls, runs = _counted_run(monkeypatch, budget, seed=8)
    assert calls == 0 and runs == []


def test_restart_streams_are_distinct():
    start = lambda rng: rng.standard_normal(3)
    objective = lambda x: (0.0, lambda: np.zeros(x.size))
    first = [
        next(_search.restarts(objective, lambda v: v, start, 1, 2, stream))[0]
        for stream in (1, 2)
    ]
    assert not np.array_equal(first[0], first[1])


def test_level_sup_spends_its_budget_when_one_gradient_needs_more(monkeypatch):
    # At level 8 a gradient costs 2m² = 128 evaluations; with 100 the start
    # point takes one, and the other 99 are spent without taking a gradient.
    points, gradients = [], []
    disk_problem = cbnorm._disk_problem

    def counted(f, m):
        objective, *rest = disk_problem(f, m)

        def counting(x):
            points.append(x)
            value, gradient = objective(x)
            return value, lambda: gradients.append(x) or gradient()

        return (counting, *rest)

    monkeypatch.setattr(cbnorm, "_disk_problem", counted)
    grants = _grants(monkeypatch)
    w = level_sup(holofun.PowerSeries([1.0]), 8, 100, seed=5)
    assert grants == [(1, 1), (128, 99)]
    assert len(points) == 1 and gradients == []
    assert w.level == 8 and 0.0 < w.value <= RADIUS_CAP + 1e-12


@pytest.mark.parametrize(
    "f",
    [
        holofun.PowerSeries([1.0]),
        holofun.PowerSeries([0.0, 1.0]),
        holofun.MoebiusQuotient(holofun.PowerSeries([1.0]), 0.5),
    ],
    ids=["z", "z^2", "z/(1-z/2)"],
)
def test_ascent_leaves_a_degenerate_start(f):
    # At 0.5·I₂ the top singular value of f[Z] is double; the ascent still
    # climbs to f(RADIUS_CAP), the level-2 supremum within the cap.
    objective, project, _, _ = cbnorm._disk_problem(f, 2)
    x0 = _search.encode(0.5 * np.eye(2, dtype=complex))
    _, value = _search.ascend(objective, x0, project, _search.Budget(200))
    assert value >= holofun.evaluate(f, RADIUS_CAP).real - 1e-9


def test_space_gradient_on_the_cap_drops_its_outward_part():
    space = space_min_linf(2)
    f = holofun.Composite(holofun.PowerSeries([1.0]), space, np.array([0.3, 0.4]), 0.7)
    objective, project, _, _ = cbnorm._space_problem(f, 2)
    x = project(2.0 * np.random.default_rng(6).standard_normal(16))  # onto the cap
    # The cap's outward normal and the objective's gradient, by central differences.
    block_norm = lambda v: opspace.matrix_norm(OpSpaceMatrix(space, _search.decode(v, (2, 2, 2))))
    central = lambda g: np.array([g(x + e) - g(x - e) for e in 1e-6 * np.eye(16)]) / 2e-6
    normal, raw = central(block_norm), central(lambda v: objective(v)[0])
    assert raw @ normal > 0.1 * np.linalg.norm(raw) * np.linalg.norm(normal)
    grad = objective(x)[1]()
    assert abs(grad @ normal) <= 1e-6 * np.linalg.norm(grad) * np.linalg.norm(normal)
    assert np.linalg.norm(grad) > 0.1 * np.linalg.norm(raw)


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


_NOT_INTEGERS = [True, False, 1.5, float("nan"), float("inf"), "3", None]


@pytest.mark.parametrize("budget", _NOT_INTEGERS)
def test_budget_rejects_non_integers(budget):
    with pytest.raises(InvalidInputError, match="budget must be an integer"):
        _search.Budget(budget)
    with pytest.raises(InvalidInputError, match="budget must be an integer"):
        _search.positive_budget(budget)


def test_budget_accepts_integers():
    assert _search.Budget(np.int64(3)).left == 3 and _search.Budget(np.uint8(2)).left == 2
    # Integral floats pass, as the config schema's `integer` lets them through.
    assert _search.Budget(2.0).left == 2 and _search.Budget(np.float64(5.0)).left == 5
    assert _search.Budget(0).left == 0 and _search.Budget(-2).spend(5) == 0
    assert _search.positive_budget(np.int32(7)) == 7
    for budget in (0, -1, np.int64(0)):
        with pytest.raises(InvalidInputError, match="budget must be >= 1"):
            _search.positive_budget(budget)


@pytest.mark.parametrize("budget", [True, 1.5])
def test_searches_reject_non_integer_budgets(budget):
    s = space_scalar()
    k = MatrixSet(s, (OpSpaceElement(s, np.array([1.0])).as_level1(),))
    x0 = OpSpaceMatrix(s, np.full((1, 1, 1), 2.0 + 0j))
    searches = [
        lambda: level_sup(holofun.PowerSeries([1.0]), 2, budget, seed=3),
        lambda: level_sup(holofun.GeometricPhi(space_row(2), np.array([0.3, 0.4]), 0.5), 2, budget, seed=3),
        lambda: dual_functional_norm(space_min_linf(2), np.array([1.0, 1.0]), budget, seed=3),
        lambda: find_certificate(k, x0, budget, seed=3),
    ]
    for search in searches:
        with pytest.raises(InvalidInputError, match="budget must be an integer"):
            search()
