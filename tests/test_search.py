"""Tests for the shared search engine: the real inner product and the
sphere projection of complex points, the restart loop and its budget
accounting, the batched line search's schedule, its resumption at the
candidate the previous line search accepted and its match with the
sequential one, the ascent from a degenerate start, budget 1 in every search
built on it, bit-exact searches pinned to captured constants, and the
rejection of budgets, levels and sample sizes that are not integers."""

import hashlib
from unittest import mock

import numpy as np
import pytest

from cbnorm_lab import _search, cbnorm, gcb, holofun, matcore, mconvex, opspace
from cbnorm_lab.cbnorm import RADIUS_CAP, level_sup
from cbnorm_lab.errors import InvalidInputError
from cbnorm_lab.mconvex import MatrixSet, find_certificate
from cbnorm_lab.opspace import (
    OpSpaceMatrix,
    space_column,
    space_min_linf,
    space_row,
    space_scalar,
)
from hull_reference import reference_representation


def _parts(z):
    """The real vector of all real parts, then all imaginary parts."""
    return np.concatenate([z.real.ravel(), z.imag.ravel()])


def _complex_normal(rng, shape):
    draw = rng.standard_normal((2, *shape))
    return draw[0] + 1j * draw[1]


def test_inner_is_one_dot_over_the_real_parts_then_the_imaginary_parts():
    rng = np.random.default_rng(4)
    for shape in [(7,), (3, 3), (2, 2, 5)]:
        a, b = _complex_normal(rng, shape), _complex_normal(rng, shape)
        assert _search.inner(a, b).hex() == float(_parts(a) @ _parts(b)).hex()
        assert np.isclose(_search.inner(a, b), np.vdot(a, b).real)


def test_to_sphere():
    rng = np.random.default_rng(5)
    stack = np.concatenate([[[3.0, 4.0j, 0.0]], np.zeros((1, 3)), _complex_normal(rng, (5, 3))])
    before = stack.copy()
    out = _search.to_sphere(stack)
    assert np.allclose(out[0], [0.6, 0.8j, 0.0]) and np.array_equal(out[1], np.zeros(3))
    for row, vec in zip(out[2:], stack[2:]):
        # The bits of the point alone, scaled as its real vector of parts.
        assert np.array_equal(_parts(row), _parts(vec) / np.linalg.norm(_parts(vec)))
    assert np.array_equal(stack, before)
    points = _complex_normal(rng, (3, 2, 2, 3))
    for row, point in zip(_search.to_sphere(points), points):
        assert np.array_equal(_parts(row), _parts(point) / np.linalg.norm(_parts(point)))


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
    # A point counts once it is one the sequential search evaluates: a start
    # point, or a line-search candidate up to the first that beats the
    # iterate.  Rows of a batch after that one are evaluated but not counted.
    calls, iterate = [0], [None]

    def objective(stack):
        values = -np.sum(np.abs(stack - 0.3) ** 2, axis=1)
        if iterate[0] is None:  # a start point
            calls[0] += 1
            iterate[0] = values[0]
        else:
            better = np.flatnonzero(values > iterate[0])
            calls[0] += int(better[0]) + 1 if better.size else len(stack)
            if better.size:
                iterate[0] = values[better[0]]

        def gradient_at(i):
            calls[0] += 2 * stack[i].size  # a gradient costs one per real coordinate
            return -2.0 * (stack[i] - 0.3)

        return values, gradient_at

    def start(rng):
        iterate[0] = None
        return _complex_normal(rng, (2,))

    grants = _grants(monkeypatch)
    runs = list(_search.restarts(objective, _search.to_sphere, start, budget, seed, 5))
    # A gradient granted fewer than its 4 evaluations is spent without being taken.
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


def test_line_search_steps_keep_negative_zero_parts():
    # The value -(Im z + 2)² climbs along -i; the gradient's real part is
    # −0.0, and a step scales it part by part, so the iterate's −0.0 real
    # part stays −0.0 (a complex product would give +0.0).
    def objective(stack):
        def gradient_at(i):
            return np.array([complex(-0.0, -2.0 * (stack[i, 0].imag + 2.0))])

        return -((stack[:, 0].imag + 2.0) ** 2), gradient_at

    x, value = _search.ascend(objective, np.array([complex(-0.0, 0.5)]), lambda stack: stack, _search.Budget(20))
    assert value > -6.25 and np.signbit(x.real[0])


def test_restart_streams_are_distinct():
    start = lambda rng: _complex_normal(rng, (3,))
    objective = lambda stack: (np.zeros(len(stack)), lambda i: np.zeros_like(stack[i]))
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

        def counting(stack):
            points.extend(stack)
            values, gradient_at = objective(stack)
            return values, lambda i: gradients.append(stack[i]) or gradient_at(i)

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
    objective, project, _ = cbnorm._disk_problem(f, 2)
    x0 = 0.5 * np.eye(2, dtype=complex)
    _, value = _search.ascend(objective, x0, project, _search.Budget(200))
    assert value >= holofun.amplify(f, np.array([[RADIUS_CAP]]))[0, 0].real - 1e-9


def test_space_gradient_on_the_cap_drops_its_outward_part():
    space = space_min_linf(2)
    f = holofun.Composite(holofun.PowerSeries([1.0]), space, np.array([0.3, 0.4]), 0.7)
    objective, project, _ = cbnorm._space_problem(f, 2)
    x = project(2.0 * _complex_normal(np.random.default_rng(6), (1, 2, 2, 2)))[0]  # onto the cap
    # The cap's outward normal and the objective's gradient, by central
    # differences along the 16 real coordinates, as real vectors of parts.
    block_norm = lambda z: opspace.matrix_norm(OpSpaceMatrix(space, z))
    units = np.concatenate([np.eye(8), 1j * np.eye(8)]).reshape(16, 2, 2, 2)
    central = lambda g: np.array([g(x + e) - g(x - e) for e in 1e-6 * units]) / 2e-6
    normal, raw = central(block_norm), central(lambda z: objective(z[None])[0][0])
    assert raw @ normal > 0.1 * np.linalg.norm(raw) * np.linalg.norm(normal)
    grad = _parts(objective(x[None])[1](0))
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


def _find_certificate():
    s = space_scalar()
    k = MatrixSet(s, (OpSpaceMatrix(s, np.array([1.0]).reshape(1, 1, -1)),))
    outside = find_certificate(k, OpSpaceMatrix(s, np.full((1, 1, 1), 2.0 + 0j)), 1, seed=3)
    assert outside is not None  # the first warm start already separates
    inside = find_certificate(k, OpSpaceMatrix(s, np.full((1, 1, 1), 0.5 + 0j)), 1, seed=3)
    assert inside is None


@pytest.mark.parametrize(
    "search", [_level_sup_disk, _level_sup_space, _find_certificate]
)
def test_searches_run_at_budget_one(search):
    search()


_NOT_INTEGERS = [True, False, 1.5, float("nan"), float("inf"), "3", None]


@pytest.mark.parametrize("budget", _NOT_INTEGERS)
def test_budget_rejects_non_integers(budget):
    with pytest.raises(InvalidInputError, match="budget must be an integer"):
        _search.Budget(budget)
    with pytest.raises(InvalidInputError, match="budget must be an integer"):
        matcore.check_count(budget, "budget")


def test_budget_accepts_integers():
    assert _search.Budget(np.int64(3)).left == 3 and _search.Budget(np.uint8(2)).left == 2
    # Integral floats pass, as a JSON config may write a count.
    assert _search.Budget(2.0).left == 2 and _search.Budget(np.float64(5.0)).left == 5
    assert _search.Budget(0).left == 0 and _search.Budget(-2).spend(5) == 0
    assert matcore.check_count(np.int32(7), "budget") == 7
    for budget in (0, -1, np.int64(0)):
        with pytest.raises(InvalidInputError, match="budget must be >= 1"):
            matcore.check_count(budget, "budget")


# Each level or count below goes through `matcore.check_level` or
# `matcore.check_count`, so a fraction, a bool, a string or None is an
# input error wherever it is passed, never a truncation or a TypeError.


@pytest.mark.parametrize("level", _NOT_INTEGERS)
def test_level_sup_rejects_non_integer_levels(level):
    with pytest.raises(InvalidInputError, match="level must be an integer"):
        level_sup(holofun.PowerSeries([1.0]), level, 10, seed=1)


@pytest.mark.parametrize("max_level", _NOT_INTEGERS)
def test_cb_lower_bound_rejects_non_integer_max_level(max_level):
    with pytest.raises(InvalidInputError, match="max_level must be an integer"):
        cbnorm.cb_lower_bound(holofun.PowerSeries([1.0]), max_level, 10, 1)


@pytest.mark.parametrize("level", _NOT_INTEGERS)
def test_gcb_element_rejects_non_integer_levels(level):
    with pytest.raises(InvalidInputError, match="level must be an integer"):
        gcb.GcbElement(space_scalar(), level, ())


@pytest.mark.parametrize("level", _NOT_INTEGERS)
def test_sample_matrix_ball_rejects_non_integer_levels(level):
    with pytest.raises(InvalidInputError, match="level must be an integer"):
        opspace.sample_matrix_ball(space_row(2), level, 0.5, 1)


@pytest.mark.parametrize("level", [0, matcore.MAX_LEVEL + 1])
def test_sample_matrix_ball_rejects_levels_past_the_cap(level):
    # A sample is a dense build like a search level: a level past MAX_LEVEL
    # is refused before anything is allocated.
    with pytest.raises(InvalidInputError, match=r"level must lie in \[1, 64\]"):
        opspace.sample_matrix_ball(space_scalar(), level, 0.5, 1)


def test_integral_float_levels_are_integers():
    assert opspace.sample_matrix_ball(space_row(2), 2.0, 0.5, 1).level == 2
    assert gcb.GcbElement(space_scalar(), 2.0, ()).level == 2
    est = cbnorm.sandwich(holofun.PowerSeries([1.0]), 2.0, 10, 1)
    assert sorted(est.level_table) == [1, 2]


def _budgeted_searches(budget):
    """Every search that reads a budget, at the levels where it scans and
    where it ascends."""
    s = space_scalar()
    k = MatrixSet(s, (OpSpaceMatrix(s, np.array([1.0]).reshape(1, 1, -1)),))
    x0 = OpSpaceMatrix(s, np.full((1, 1, 1), 2.0 + 0j))
    f = holofun.PowerSeries([1.0])
    g = holofun.GeometricPhi(space_row(2), np.array([0.3, 0.4]), 0.5)
    return [
        *(lambda m=m, h=h: level_sup(h, m, budget, seed=3) for m in (1, 2) for h in (f, g)),
        lambda: cbnorm.sandwich(f, 2, budget, 3),
        lambda: find_certificate(k, x0, budget, seed=3),
        lambda: gcb.gcb_upper_bound(gcb.GcbElement(s, 1, ()), budget),
    ]


@pytest.mark.parametrize("budget", [True, 1.5])
def test_searches_reject_non_integer_budgets(budget):
    for search in _budgeted_searches(budget):
        with pytest.raises(InvalidInputError, match="budget must be an integer"):
            search()


@pytest.mark.parametrize("budget", [matcore.MAX_BUDGET + 1, 2**40, 1e300])
def test_searches_refuse_budgets_past_the_cap(budget):
    # Each search refuses before it allocates: a level-1 scan of 2**40 points
    # would ask for an 8 TB grid, and one of 1e300 for an impossible shape.
    for search in _budgeted_searches(budget):
        with pytest.raises(InvalidInputError, match=f"budget must be at most {matcore.MAX_BUDGET}, got "):
            search()


# ---------------------------------------------------------------------------
# The batched line search against the sequential one


def _sequential_ascend(objective, x0, project, budget):
    """The ascent that tries one line-search candidate at a time, as the
    search ran before candidates were batched: the reference `ascend` must
    match bit for bit.  `objective` and `project` take one point."""
    x = project(np.asarray(x0, dtype=complex))
    if not budget.spend():
        return None, -np.inf
    value, gradient = objective(x)
    for _ in range(_search._MAX_STEPS):
        if budget.spend(2 * x.size) < 2 * x.size:
            break
        grad = gradient()
        gnorm = float(np.linalg.norm(_parts(grad)))
        if gnorm <= 1e-12:
            break
        step = 1.0 / gnorm
        while step * gnorm > 1e-9:
            if not budget.spend():
                return x, value
            cand = project(x + step * grad)
            cval, cgrad = objective(cand)
            if cval > value:
                x, value, gradient = cand, cval, cgrad
                break
            step *= 0.5
        else:
            break
    return x, value


def _one_point(objective, project):
    """A stacked objective and projection as maps of one point, a stack of one."""

    def single(x):
        values, gradient_at = objective(x[None])
        return values[0], lambda: gradient_at(0)

    return single, lambda x: project(x[None])[0]


# Each case is a random problem: (objective, project, start point, and the
# value of one point computed on its own, as the single-point objectives did).


def _disk_case(rng):
    f = [holofun.PowerSeries([1.0]), holofun.MoebiusQuotient(holofun.PowerSeries([0.0, 1.0]), 0.5),
         holofun.PowerSeries([0.2, -0.5, 0.3j])][int(rng.integers(3))]
    m = int(rng.integers(2, 4))
    objective, project, start = cbnorm._disk_problem(f, m)
    alone = lambda point: matcore.operator_norm(holofun._eval_array(f, point)[0])
    return objective, project, start(rng), alone


def _space_case(rng):
    space = [space_min_linf(2), space_row(2), opspace.space_mk(2)][int(rng.integers(3))]
    phi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    phi *= 0.6 / opspace.closed_form_dual_norm(space, phi)
    f = holofun.Product(holofun.Composite(holofun.PowerSeries([1.0, 0.5]), space, phi, 0.6),
                        holofun.GeometricPhi(space, phi[::-1], 0.6))
    m = int(rng.integers(1, 3))
    objective, project, start = cbnorm._space_problem(f, m)
    alone = lambda point: matcore.operator_norm(holofun.amplify(f, OpSpaceMatrix(space, point)))
    return objective, project, start(rng), alone


def _certificate_case(rng):
    space = [space_min_linf(2), space_row(2)][int(rng.integers(2))]
    k = MatrixSet(space, tuple(OpSpaceMatrix(space, opspace._random_matrix_ball(rng, space, m, 0.7)) for m in (1, 2)))
    level = int(rng.integers(1, 3))
    x0 = mconvex.hull_element(k, reference_representation(k, level, rng))
    captured = []
    with mock.patch.object(mconvex, "restarts", lambda objective, *args: captured.append(objective) or ()):
        find_certificate(k, x0, 20, seed=4)

    def alone(point):
        verdict = mconvex.check_certificate(mconvex.SeparationCertificate(space, point), k, x0)
        return verdict.target_value / max(max(verdict.generator_values), 1e-12)

    return captured[0], _search.to_sphere, _complex_normal(rng, (level, level, space.dim)), alone


_CASES = [_disk_case, _space_case, _certificate_case]


@pytest.mark.parametrize("case", _CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_objective_rows_have_the_bits_of_one_point(case, seed):
    rng = np.random.default_rng(10 + seed)
    objective, project, x0, alone = case(rng)
    stack = project(x0 + 0.3 * _complex_normal(rng, (6, *x0.shape)))
    values, _ = objective(stack)
    assert len(values) == 6
    for row, value in zip(stack, values):
        assert value.hex() == float(alone(row)).hex()


def _batches(objective, x0, project, budget):
    """(evaluations spent before, rows) of each stack `ascend` evaluates."""
    batches, state = [], _search.Budget(budget)

    def recording(stack):
        batches.append((state.used, len(stack)))
        return objective(stack)

    _search.ascend(recording, x0, project, state)
    return batches


def _line_searches(objective, x0, project, budget):
    """The rows of each stack `ascend` evaluates, grouped by line search: the
    start point first, then one group per gradient taken."""
    groups = [[]]

    def recording(stack):
        groups[-1].append(len(stack))
        values, gradient_at = objective(stack)
        return values, lambda i: groups.append([]) or gradient_at(i)

    _search.ascend(recording, x0, project, _search.Budget(budget))
    return [group for group in groups if group]


def _accepting(ks):
    """A toy objective on one complex coordinate whose n-th line search first
    improves at candidate ks[n], the last entry repeating.  The gradient is
    1, so candidate j is x + 2^-j, and a point beats the iterate x when it
    lies right of x by at most 2^-k."""
    state = {"x": None, "n": -1}

    def objective(stack):
        y = stack[:, 0].real
        if state["n"] >= 0:
            k = ks[min(state["n"], len(ks) - 1)]
            y = np.where(y - state["x"] <= 1.5 * 2.0**-k, y, -np.inf)

        def gradient_at(i):
            state["x"], state["n"] = y[i], state["n"] + 1
            return np.ones(1, dtype=complex)

        return y, gradient_at

    return objective


@pytest.mark.parametrize("k", [0, 1, 3, 12])
def test_each_line_search_resumes_at_the_accepted_candidate(k):
    # The first line search tries batches of 1, 8, 64, ... up to candidate
    # k; each later one hands the objective one stack, candidates 0..k.
    groups = _line_searches(_accepting([k]), np.zeros(1), lambda stack: stack, 10000)
    first = {0: [1], 1: [1, 8], 3: [1, 8], 12: [1, 8, 21]}[k]
    assert groups[:2] == [[1], first]
    assert groups[2:] == [[k + 1]] * (_search._MAX_STEPS - 1)


def test_a_resumed_batch_is_charged_up_to_its_first_improving_row():
    # The first line search accepts candidate 3, so the second tries 4 rows,
    # accepts row 1, and is charged 2: the gradient (2 evaluations for a
    # point of size 1) and the next line search's stack of 2 rows follow at
    # 9 + 2 + 2 = 13.  Rows 2 and 3 also improve, and are discarded.  Then
    # 4 more steps of 2^-1, and a last line search cut to 1 row.
    identity = lambda stack: stack
    batches = _batches(_accepting([3, 1]), np.zeros(1), identity, 30)
    assert batches == [(1, 1), (3, 1), (4, 8), (9, 4), (13, 2), (17, 2), (21, 2), (25, 2), (29, 1)]
    state = _search.Budget(30)
    x, value = _search.ascend(_accepting([3, 1]), np.zeros(1), identity, state)
    assert x[0] == value == 0.125 + 5 * 0.5
    assert state.used == 30


@pytest.mark.parametrize("case", _CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_line_search_matches_the_sequential_one(case, seed):
    rng = np.random.default_rng(seed)
    objective, project, x0, _ = case(rng)
    # Some line search after the first resumes at a batch of several rows.
    assert any(group[0] > 1 for group in _line_searches(objective, x0, project, 3000)[2:])
    # Budgets that run out inside a batch of several candidates, so the
    # batch is cut short, and budgets drawn at random.
    cuts = [used + j for used, rows in _batches(objective, x0, project, 3000) for j in range(1, rows)]
    assert cuts
    budgets = sorted({*rng.choice(cuts, min(len(cuts), 8), replace=False), *rng.integers(1, 401, 8), 1000, 3000})
    single, project_one = _one_point(objective, project)
    for budget in budgets:
        batched, sequential = _search.Budget(budget), _search.Budget(budget)
        x, value = _search.ascend(objective, x0, project, batched)
        x_ref, value_ref = _sequential_ascend(single, x0, project_one, sequential)
        assert value.hex() == value_ref.hex()
        assert np.array_equal(x, x_ref)
        assert batched.used == sequential.used


def test_line_search_batches_grow_eightfold():
    # The gradient given points downhill, so no candidate beats the iterate
    # and the line search tries all 30 steps with s·|grad| > 1e-9: one row,
    # then 8, then the other 21.  The start point is charged 1 before it is
    # evaluated, and a point of size 2 charges 4 per gradient.
    def objective(stack):
        return -np.sum(np.abs(stack) ** 2, axis=1), lambda i: stack[i]

    x0 = np.array([0.5, 0.5j])
    assert _batches(objective, x0, lambda stack: stack, 1000) == [(1, 1), (5, 1), (6, 8), (14, 21)]
    # Each batch is capped at the budget left.
    assert _batches(objective, x0, lambda stack: stack, 10) == [(1, 1), (5, 1), (6, 4)]


def _one_row_at_a_time(problem):
    """`problem` with its objective and projection applied to each row of a
    stack alone, as the search ran before candidates were batched."""

    def rowwise(f, m):
        objective, project, *rest = problem(f, m)

        def each_objective(stack):
            runs = [objective(row[None]) for row in stack]
            return np.concatenate([values for values, _ in runs]), lambda i: runs[i][1](0)

        def each_project(stack):
            return np.concatenate([project(row[None]) for row in stack])

        return (each_objective, each_project, *rest)

    return rowwise


def test_level_eight_disk_search_takes_fewer_svds(monkeypatch):
    # One level-8 disk level_sup at budget 300: the batches of line-search
    # candidates (1, 8, 64, ... in a first line search, from k + 1 rows in
    # one resumed at candidate k) take fewer SVDs than the same search, to
    # the bit, with each candidate evaluated and projected alone.
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    f = holofun.PowerSeries([1.0])
    batched = level_sup(f, 8, 300, seed=8)
    svds = len(calls)
    monkeypatch.setattr(cbnorm, "_disk_problem", _one_row_at_a_time(cbnorm._disk_problem))
    alone = level_sup(f, 8, 300, seed=8)
    assert batched.value.hex() == alone.value.hex() and np.array_equal(batched.matrix, alone.matrix)
    assert svds < len(calls) - svds


def test_level_two_space_search_resumes_its_line_searches(monkeypatch):
    # The level-2 ascent of a sum of composites accepts candidates past 0,
    # and each resumed line search hands the objective one stack where
    # batches of 1, 8, ... took two.  The witness is that of the same
    # search, to the bit, with each candidate evaluated and projected alone.
    space = space_column(2)
    phi, psi = np.array([0.3 + 0.2j, -0.1j]), np.array([-0.2, 0.4 + 0.1j])
    f = holofun.Sum(
        holofun.Composite(holofun.PowerSeries([1.0, 0.5]), space, phi, 0.6),
        holofun.Composite(holofun.PowerSeries([0.0, 0.8j]), space, psi, 0.6),
    )
    stacks, line_searches = [0], []
    space_problem = cbnorm._space_problem

    def counted(f, m):
        objective, *rest = space_problem(f, m)

        def counting(stack):
            stacks[0] += 1
            values, gradient_at = objective(stack)
            # A gradient is taken only to start a line search.
            return values, lambda i: line_searches.append(1) or gradient_at(i)

        return (counting, *rest)

    monkeypatch.setattr(cbnorm, "_space_problem", counted)
    resumed = level_sup(f, 2, 300, seed=2)
    assert stacks[0] < 2 * len(line_searches)
    monkeypatch.setattr(cbnorm, "_space_problem", _one_row_at_a_time(space_problem))
    alone = level_sup(f, 2, 300, seed=2)
    assert resumed.value.hex() == alone.value.hex()
    assert np.array_equal(resumed.matrix.entries, alone.matrix.entries)


# ---------------------------------------------------------------------------
# Searches no golden record reaches, pinned bit for bit: every shipped config
# searches the disk, and the shipped separation succeeds on a warm start.


def test_space_search_and_restart_certificate_keep_their_bits():
    row = space_row(2)
    phi, psi = np.array([0.3 + 0.1j, 0.4]), np.array([0.2, -0.1j])
    f = holofun.Product(
        holofun.GeometricPhi(row, phi, float(np.linalg.norm(phi))),
        holofun.GeometricPhi(row, psi, float(np.linalg.norm(psi))),
    )
    w = level_sup(f, 2, 400, seed=3)
    assert w.value.hex() == "0x1.cd096014a56b2p-3"
    assert hashlib.sha256(w.matrix.entries.tobytes()).hexdigest() == (
        "66cf1a562280df3b34dc950bf4d36423f13e6f4f3dda86bb5ee3a53eb83fec01"
    )

    space = opspace.space_mk(2)
    rng = np.random.default_rng(1)
    k = MatrixSet(space, tuple(OpSpaceMatrix(space, opspace._random_matrix_ball(rng, space, m, 0.7)) for m in (1, 2)))
    x0 = OpSpaceMatrix(space, opspace._random_matrix_ball(rng, space, 2, 0.4))
    for warm in (mconvex.coordinate_grid(space), mconvex.svd_compression_grid(x0)):
        assert mconvex._scale_to_certificate(k, x0, warm) is None  # found by a restart
    cert = find_certificate(k, x0, 300, seed=1)
    assert hashlib.sha256(cert.grid.tobytes()).hexdigest() == (
        "adf80d5e93a657ff62e28390135e8d7bf8a1a28f63dfd0181fd0c3a42606a951"
    )

    # The space projection keeps −0.0 parts: it scales a point's parts alone,
    # from inside the ball and from outside it onto the same point.
    signed = np.array([[complex(-0.0, 0.1), complex(0.2, -0.0)], [complex(-0.0, -0.0), complex(-0.1, 0.3)]])
    signs = lambda z: np.signbit(z.view(np.float64))
    _, space_project, _ = cbnorm._space_problem(holofun.GeometricPhi(row, phi, float(np.linalg.norm(phi))), 2)
    entries = np.stack([signed, signed], axis=-1)
    outside = (4.0 * entries.view(np.float64)).view(np.complex128)  # a complex product would drop −0.0
    out = space_project(np.stack([entries, outside]))
    assert np.array_equal(signs(out), signs(np.stack([entries, entries])))
    assert np.array_equal(out[0], out[1]) and not np.array_equal(out[0], entries)


def test_polish_with_an_empty_budget_returns_its_point_and_calls_nothing():
    def refuse(*args):
        raise AssertionError("called")

    x, budget = np.ones((2, 2), dtype=complex), _search.Budget(0)
    point, value = _search.polish(refuse, refuse, x, 0.5, budget)
    assert point is x and value == 0.5 and budget.used == 0
