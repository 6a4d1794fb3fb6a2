"""Tests for the cb-norm sandwich: level sups, lifting, bound rules, checks."""

import tracemalloc

import numpy as np
import pytest

from cbnorm_lab import cbnorm, holofun, matcore
from cbnorm_lab.cbnorm import (
    RADIUS_CAP,
    Witness,
    _disk_problem,
    algebra_check,
    cb_lower_bound,
    cb_upper_bound,
    level_sup,
    lift_witness,
    sandwich,
    schwarz_check,
    witness_value,
)
from cbnorm_lab.errors import InvalidInputError, SandwichViolationError
from cbnorm_lab.holofun import (
    Blaschke,
    Composite,
    GeometricPhi,
    MoebiusQuotient,
    PowerSeries,
    Product,
    Scale,
    Sum,
    amplify,
)
from cbnorm_lab.gcb import GcbElement
from cbnorm_lab.opspace import (
    MAX_SPACE_PARAM,
    ConcreteOperatorSpace,
    OpSpaceMatrix,
    closed_form_dual_norm,
    matrix_norm,
    space_column,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)

IDENTITY = PowerSeries([1.0])
SQUARE = PowerSeries([0.0, 1.0])
GEOMETRIC = MoebiusQuotient(IDENTITY, 0.5)
BLASCHKE_HALF = Blaschke(1.0, 1, [0.5])
MIN2 = space_min_linf(2)


def _functional(space, r, seed):
    """A seeded functional on the space with dual norm r, and r as computed."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    phi *= r / closed_form_dual_norm(space, phi)
    return phi, closed_form_dual_norm(space, phi)


def lacunary(k_max=12):
    degrees = [2**k for k in range(1, k_max + 1)]
    coeffs = np.zeros(degrees[-1], dtype=complex)
    for k, deg in enumerate(degrees, start=1):
        coeffs[deg - 1] = 2.0**-k
    return PowerSeries(coeffs)


def test_level_sup_identity_reaches_cap():
    w = level_sup(IDENTITY, 1, 2000, 5)
    assert w.value >= 0.999
    assert w.value <= RADIUS_CAP + 1e-12


def test_level_sup_square_scalar():
    w = level_sup(SQUARE, 1, 10000, 5)
    assert w.value >= 0.99


def test_level_sup_moebius_matches_radial_oracle():
    # 1-D oracle: |z/(1-0.5z)| on the disk of radius RADIUS_CAP peaks on the
    # positive real axis.
    radii = np.linspace(0.0, RADIUS_CAP, 200001)
    oracle = float(np.max(radii / (1.0 - 0.5 * radii)))
    w = level_sup(GEOMETRIC, 1, 20000, 5)
    assert w.value <= oracle + 1e-12
    assert w.value >= oracle - 1e-3


def test_level_sup_witness_recomputable():
    w = level_sup(GEOMETRIC, 2, 3000, 5)
    assert abs(witness_value(GEOMETRIC, w) - w.value) < 1e-9


# Each projected value is within 16 ulps of RADIUS_CAP (ulp 2^-53 below 1).
_ON_CAP = 16 * 2.0**-53


def _on_the_scaled_unitaries(a):
    return np.all(np.abs(np.linalg.svd(a, compute_uv=False) - RADIUS_CAP) <= _ON_CAP)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_disk_projection_rows_have_the_bits_of_one_point(m):
    # The line search evaluates its candidates as one stack; its outcome is
    # that of projecting each candidate alone only if the bits agree.
    _, project, _ = _disk_problem(GEOMETRIC, m)
    rng = np.random.default_rng(40 + m)
    for k in (1, 2, 8, 64):
        points = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
        stack = points * (np.linspace(0.2, 2.0, k) / matcore.operator_norms(points))[:, None, None]
        out = project(stack)
        assert out.shape == stack.shape
        for point, row in zip(stack, out):
            assert row.tobytes() == project(point[None])[0].tobytes()
            assert _on_the_scaled_unitaries(row)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_searched_disk_witness_lies_on_the_scaled_unitaries(m):
    for f in (GEOMETRIC, BLASCHKE_HALF, Sum(SQUARE, Scale(-0.5j, GEOMETRIC))):
        w = level_sup(f, m, 300, 7)
        assert w.matrix.shape == (m, m) and _on_the_scaled_unitaries(w.matrix)
        assert witness_value(f, w).hex() == w.value.hex()


@pytest.mark.parametrize("seed", range(10))
def test_level_two_blaschke_search_leaves_the_cap_value(seed):
    # Clipped into the ball, 7 of these 10 searches crept along the cap and
    # ended near |f(RADIUS_CAP)| = 0.99999; on the scaled unitaries each
    # passes 1.05.
    assert level_sup(BLASCHKE_HALF, 2, 300, seed).value > 1.05


# ---------------------------------------------------------------------------
# Level 1 of a disk function: the circle scan


def _nonnegative_catalog():
    """The disk functions with nonnegative coefficients that the benchmark
    sandwiches: z, z², z/(1−z/2), z/(1−0.9z), Σ 2^-k·z^(2^k) and
    z·z/(1−z/2)."""
    return [IDENTITY, SQUARE, GEOMETRIC, MoebiusQuotient(IDENTITY, 0.9), lacunary(), Product(IDENTITY, GEOMETRIC)]


_SCAN_BUDGETS = [1, 2, 7, 300, 2 * cbnorm._SCAN_STACK + 300]
_BLASCHKE_COMPOSITE = Composite(BLASCHKE_HALF, space_mk(2), *_functional(space_mk(2), 0.6, 0))


def _unprojected(problem):
    """A search problem whose projection fails the test."""

    def failing(f, m):
        objective, _, start = problem(f, m)
        return objective, lambda stack: pytest.fail("the scan projected a point"), start

    return failing


@pytest.mark.parametrize(
    "budget, f",
    [pytest.param(b, BLASCHKE_HALF, id=str(b)) for b in _SCAN_BUDGETS]
    + [pytest.param(b, _BLASCHKE_COMPOSITE, id=f"composite-{b}") for b in _SCAN_BUDGETS],
)
def test_circle_scan_hands_the_objective_exactly_its_budget(monkeypatch, budget, f):
    # Only the calls on the scanned function itself are counted: a composite
    # evaluates its scalar part in a further call on the same stack.  Each
    # call counted is one stack of the scan, its points shaped as the scan
    # unit: 1×1 matrices, or a composite's 1×1 grids.  Points on the circle
    # need no projection.
    stacks = []
    eval_array = holofun._eval_array
    monkeypatch.setattr(
        holofun, "_eval_array", lambda g, z, *rest: (g is f and stacks.append(z.shape)) or eval_array(g, z, *rest)
    )
    for name in ("_disk_problem", "_space_problem"):
        monkeypatch.setattr(cbnorm, name, _unprojected(getattr(cbnorm, name)))
    w = level_sup(f, 1, budget, 5)
    assert sum(shape[0] for shape in stacks) == budget
    assert all(shape[1:] == cbnorm._scan_unit(f).shape and shape[0] <= cbnorm._SCAN_STACK for shape in stacks)
    assert w.level == 1 and 0.0 < w.value < 1.0


def test_circle_scan_reads_no_seed():
    for f in (GEOMETRIC, BLASCHKE_HALF, lacunary()):
        first, second = level_sup(f, 1, 300, 1), level_sup(f, 1, 300, 2)
        assert first.value.hex() == second.value.hex()
        assert first.matrix.tobytes() == second.matrix.tobytes()


@pytest.mark.parametrize("budget", [1, 300, 2000])
def test_circle_scan_witness_recomputes_bit_for_bit(budget):
    for f in (*_nonnegative_catalog(), BLASCHKE_HALF, Sum(SQUARE, Scale(-0.5j, GEOMETRIC))):
        w = level_sup(f, 1, budget, 3)
        assert w.matrix.shape == (1, 1)
        assert matcore.operator_norm(w.matrix) < 1.0
        assert witness_value(f, w).hex() == w.value.hex()


@pytest.mark.parametrize("budget", [1, 300, 2000])
def test_circle_scan_takes_the_cap_for_nonnegative_coefficients(budget):
    # |f| <= f(|z|) on the disk, so z = RADIUS_CAP is a maximizer; points on
    # the circle that beat it do so by rounding alone, and tie with it.
    cap = np.array([[RADIUS_CAP]], dtype=np.complex128)
    for f in _nonnegative_catalog():
        w = level_sup(f, 1, budget, 3)
        assert w.matrix.tobytes() == cap.tobytes()
        assert w.value == matcore.operator_norm(amplify(f, cap))


def test_circle_scan_memory_does_not_grow_with_the_points_it_scans():
    # The scan keeps 8 bytes of grid value per point and no grid point.  When
    # it kept every point and value, a budget-2 000 000 scan of this function
    # peaked at 112 MB under tracemalloc (56 bytes a point), with the witness
    # whose bits are asserted here.
    budget = 2_000_000
    level_sup(BLASCHKE_HALF, 1, 300, 1)
    tracemalloc.start()
    try:
        w = level_sup(BLASCHKE_HALF, 1, budget, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * budget
    assert w.value.hex() == "0x1.ffffd342c17adp-1"
    assert w.matrix.tobytes().hex() == "b2db10e4fdffefbff7cc9a78db001c3f"


def test_circle_scan_finds_the_blaschke_maximum_at_minus_the_cap():
    # |z(z−½)/(1−½z)| on |z| = r peaks at z = −r: r(r + ½)/(1 + r/2).
    w = level_sup(BLASCHKE_HALF, 1, 300, 3)
    assert abs(abs(np.angle(w.matrix[0, 0])) - np.pi) < 1e-6
    r = RADIUS_CAP
    assert w.value == pytest.approx(r * (r + 0.5) / (1.0 + 0.5 * r), rel=1e-15)


# ---------------------------------------------------------------------------
# Level 1 of a one-functional composite: the circle scan through a norming element


# One space of each builder kind, with a composite g∘φ (g = z/(1−z/2)) and a
# geometric functional φ/(1−φ), both with nonnegative coefficients, so that
# |f| peaks at φ(x) = RADIUS_CAP·‖φ‖.
SCANNED = [
    pytest.param(space, kind, seed, id=f"{space.kind}{space.param}-{kind}")
    for seed, space in enumerate([space_scalar(), space_mk(2), space_mk(3), space_row(3), space_column(2), MIN2])
    for kind in ("composite", "geometric_phi")
]


def _scanned(space, kind, seed):
    phi, r = _functional(space, 0.6, seed)
    if kind == "composite":
        return Composite(GEOMETRIC, space, phi, r), lambda t: t / (1.0 - 0.5 * t)
    return GeometricPhi(space, phi, r), lambda t: t / (1.0 - t)


@pytest.mark.parametrize("space, kind, seed", SCANNED)
def test_one_functional_level_one_takes_the_cap_circle(space, kind, seed):
    f, g = _scanned(space, kind, seed)
    w = level_sup(f, 1, 300, 3)
    expected = g(RADIUS_CAP * closed_form_dual_norm(space, f.phi))
    assert abs(w.value - expected) <= 1e-12 * expected
    assert isinstance(w.matrix, OpSpaceMatrix) and w.matrix.level == 1
    assert matrix_norm(w.matrix) < 1.0
    assert witness_value(f, w).hex() == w.value.hex()
    other = level_sup(f, 1, 300, 4)
    assert other.value.hex() == w.value.hex()
    assert other.matrix.entries.tobytes() == w.matrix.entries.tobytes()


@pytest.mark.parametrize("m", [1, 2], ids=["scanned", "searched"])
def test_level_sup_wraps_every_witness_for_its_domain(m):
    # Level 1 is the circle scan and level 2 the ascent: either way a
    # function over a space gets an OpSpaceMatrix over that space, and a
    # disk function a complex array.
    f, _ = _scanned(space_mk(2), "composite", 1)
    w = level_sup(f, m, 50, 1)
    assert type(w.matrix) is OpSpaceMatrix and w.matrix.space is f.space and w.matrix.level == m
    w = level_sup(BLASCHKE_HALF, m, 50, 1)
    assert type(w.matrix) is np.ndarray and w.matrix.dtype == np.complex128 and w.matrix.shape == (m, m)


def test_one_functional_provenance_names_the_scan():
    # The Blaschke composite's level 1 stays below its cap-ball bound, so
    # levels 2 and 4 are searched; g∘φ with g = z/(1−z/2), and φ/(1 − φ),
    # meet it at level 1.
    f = Composite(BLASCHKE_HALF, MIN2, *_functional(MIN2, 0.6, 0))
    est = cb_lower_bound(f, 4, 50, 1)
    assert est.provenance.startswith("lower: circle scan at level 1, projected-ascent level sups at levels [2, 4]")
    for kind in ("composite", "geometric_phi"):
        f, _ = _scanned(MIN2, kind, 0)
        est = cb_lower_bound(f, 4, 50, 1)
        assert est.provenance.startswith("lower: circle scan at level 1, budget 50 per level, radius cap 0.999999, ")
        assert "levels [2, 4] lifted unsearched" in est.provenance


def test_custom_space_and_two_functionals_still_search_level_one():
    # A custom space has no closed-form norming element, and a product of
    # two functionals is no function of one φ: both keep the seeded ascent.
    custom = ConcreteOperatorSpace(space_row(2).basis)
    phi = np.array([0.3, 0.4j])
    two = Product(*(_scanned(MIN2, kind, 0)[0] for kind in ("composite", "geometric_phi")))
    for f in (Composite(GEOMETRIC, custom, phi, 0.5), two):
        first, second = level_sup(f, 1, 300, 1), level_sup(f, 1, 300, 2)
        for w in (first, second):
            assert matrix_norm(w.matrix) <= RADIUS_CAP * (1.0 + 1e-12)
            assert abs(witness_value(f, w) - w.value) <= 1e-12 * w.value
        assert first.matrix.entries.tobytes() != second.matrix.entries.tobytes()
        assert cb_lower_bound(f, 2, 50, 1).provenance.startswith("lower: projected-ascent level sups at levels [1, 2]")


def test_level_sup_keeps_the_first_restart_of_equal_values(monkeypatch):
    # Stub restarts: the second and third tie exactly, and the third has
    # the smaller entries.
    points = [np.full((2, 2), c, dtype=np.complex128) for c in (0.1, 0.3, 0.2, 0.4)]
    runs = list(zip(points, (0.5, 0.7, 0.7, 0.6)))
    monkeypatch.setattr(cbnorm, "restarts", lambda *args: iter(runs))
    w = level_sup(GEOMETRIC, 2, 10, 5)
    assert w.matrix is points[1] and w.value == 0.7


def test_lower_table_keeps_the_direct_witness_on_a_tie_with_the_lifted_one(monkeypatch):
    # Stub level sups, level 1 a stub scan that spends its budget: level 2
    # ties the lifted level-1 witness exactly, and level 4 falls below it.
    direct = {
        1: Witness(level=1, matrix=np.array([[0.5]], dtype=np.complex128), value=0.8),
        2: Witness(level=2, matrix=np.diag([0.75, 0.0]).astype(np.complex128), value=0.8),
        4: Witness(level=4, matrix=0.1 * np.eye(4, dtype=np.complex128), value=0.7),
    }
    monkeypatch.setattr(cbnorm, "_circle_scan", lambda f, budget, *rest: (direct[1].matrix, direct[1].value, budget))
    monkeypatch.setattr(cbnorm, "level_sup", lambda f, m, budget, seed: direct[m])
    table, spent, _ = cbnorm._lower_table(GEOMETRIC, [1, 2, 4], 10, 5)
    assert spent == {1: 10, 2: 10, 4: 10}
    assert table[1].matrix is direct[1].matrix and table[1].value == 0.8 and table[2] is direct[2]
    assert table[4].value == 0.8
    assert table[4].matrix.tobytes() == lift_witness(direct[2], 4).matrix.tobytes()


def test_lower_table_stops_once_the_lower_bound_meets_the_cap_ball_bound(monkeypatch):
    # Level 1 of z reaches W_cap = RADIUS_CAP on the scan's grid, so only the
    # grid's 150 points reach the objective, and no zoom round; levels 2, 4
    # and 8 are padded copies of its witness.
    levels, shapes = [], []
    search, eval_array = cbnorm.level_sup, holofun._eval_array
    monkeypatch.setattr(cbnorm, "level_sup", lambda f, m, *rest: levels.append(m) or search(f, m, *rest))
    monkeypatch.setattr(holofun, "_eval_array", lambda f, z, *rest: shapes.append(z.shape) or eval_array(f, z, *rest))
    est = sandwich(IDENTITY, 8, 300, 1)
    assert levels == []
    assert sum(shape[0] for shape in shapes) == 150 and all(shape[1:] == (1, 1) for shape in shapes)
    assert est.samples == {1: 150, 2: 0, 4: 0, 8: 0}
    first = est.level_table[1]
    for m in (2, 4, 8):
        w = est.level_table[m]
        assert w.level == m and w.value == first.value == est.lower
        assert w.matrix.tobytes() == lift_witness(first, m).matrix.tobytes()
    assert "levels [2, 4, 8] lifted unsearched: the lower bound met the cap-ball bound W_cap = 0.999999;" in est.provenance


def test_lower_table_stops_on_zero_functions():
    # W_cap = 0 for the zero series and for a composite through φ = 0.
    zero_phi = Composite(GEOMETRIC, MIN2, np.zeros(2), 0.0)
    for f in (PowerSeries([0.0]), zero_phi):
        est = cb_lower_bound(f, 4, 50, 1)
        assert est.lower == 0.0 and est.samples == {1: 25, 2: 0, 4: 0}


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
def test_lower_bound_refuses_a_bad_seed_that_only_a_scan_would_meet(seed):
    # Level 1 of z is a circle scan, which reads no seed, and levels above it
    # are lifted unsearched: the seed is still checked.
    with pytest.raises(InvalidInputError, match="seed must"):
        cb_lower_bound(IDENTITY, 2, 50, seed)


def _level_one_table(monkeypatch, f, budget, max_level):
    """cb_lower_bound of f up to max_level, the sizes of the stacks of f
    itself that its objective saw, and the unstopped level-1 scan."""
    seen = []
    eval_array = holofun._eval_array
    with monkeypatch.context() as patch:
        patch.setattr(holofun, "_eval_array", lambda g, z, *rest: (g is f and seen.append(len(z))) or eval_array(g, z, *rest))
        est = cb_lower_bound(f, max_level, budget, 3)
    return est, seen, level_sup(f, 1, budget, 3)


def _same_bits(w, other):
    bits = lambda w: np.asarray(getattr(w.matrix, "entries", w.matrix)).tobytes()
    return w.value.hex() == other.value.hex() and bits(w) == bits(other)


@pytest.mark.parametrize("budget", [1, 300, 2000])
def test_lower_table_scan_stops_after_the_grid_that_meets_the_cap_ball_bound(monkeypatch, budget):
    # These peak at θ = 0, the grid's first point, where the grid meets
    # W_cap: the objective sees the grid's points alone, the record counts
    # them, and the witness is the unstopped scan's, bit for bit.
    grid = budget - min(budget // 2, cbnorm._ZOOM_SHARE)
    for f in (*_nonnegative_catalog(), _scanned(space_mk(2), "composite", 1)[0]):
        est, seen, full = _level_one_table(monkeypatch, f, budget, 2)
        assert sum(seen) == grid and est.samples == {1: grid, 2: 0}
        assert _same_bits(est.level_table[1], full)


@pytest.mark.parametrize("budget", [1, 300, 2000])
def test_lower_table_scan_below_the_cap_ball_bound_spends_its_budget(monkeypatch, budget):
    # Level 1 of these stays below W_cap, so the scan is the unstopped one.
    for f in (BLASCHKE_HALF, Sum(SQUARE, Scale(-0.5j, GEOMETRIC)), _BLASCHKE_COMPOSITE):
        est, seen, full = _level_one_table(monkeypatch, f, budget, 1)
        assert sum(seen) == est.samples[1] == budget
        assert _same_bits(est.level_table[1], full)


@pytest.mark.parametrize(
    "f, refusal",
    [(Scale(1e308, PowerSeries([1e308])), "not finite"), (PowerSeries([1e-320]), "subnormal")],
    ids=["overflowing", "subnormal"],
)
def test_lower_table_refuses_a_cap_ball_bound_before_any_search(f, refusal, monkeypatch):
    # Evaluating the overflowing function would warn, and a subnormal one
    # rounds its level values above the exact rule.
    for name in ("level_sup", "_circle_scan"):
        monkeypatch.setattr(cbnorm, name, lambda *args: pytest.fail("searched"))
    with pytest.raises(InvalidInputError, match=f"certified upper bound is {refusal}: "):
        cb_lower_bound(f, 2, 50, 1)


def test_lift_witness_preserves_value():
    w = level_sup(GEOMETRIC, 1, 2000, 7)
    lifted = lift_witness(w, w.level + 1)
    assert lifted.level == w.level + 1
    assert lifted.value == w.value
    assert abs(witness_value(GEOMETRIC, lifted) - w.value) < 1e-12


def test_lift_twice_is_two_by_two_zero_block():
    w = level_sup(SQUARE, 1, 500, 3)
    twice = lift_witness(lift_witness(w, 2), 3)
    mat = np.asarray(twice.matrix)
    assert mat.shape == (3, 3)
    assert np.all(mat[1:, :] == 0) and np.all(mat[:, 1:] == 0)


def test_lift_witness_to_its_own_level_keeps_it():
    for w in (level_sup(GEOMETRIC, 2, 200, 7), level_sup(Composite(GEOMETRIC, MIN2, [0.3, 0.2], 0.5), 2, 200, 7)):
        same = lift_witness(w, w.level)
        assert same.level == w.level and same.value == w.value
        assert np.asarray(getattr(same.matrix, "entries", same.matrix)).tobytes() == (
            np.asarray(getattr(w.matrix, "entries", w.matrix)).tobytes()
        )


@pytest.mark.parametrize(
    "level, message",
    [(1, "cannot lift a level-2 witness down to level 1"), (matcore.MAX_LEVEL + 1, "level must lie in"),
     (2.5, "level must be an integer"), (True, "level must be an integer")],
)
def test_lift_witness_refuses_a_level_it_cannot_reach(level, message):
    w = level_sup(IDENTITY, 2, 10, 0)
    with pytest.raises(InvalidInputError, match=message):
        lift_witness(w, level)


@pytest.mark.parametrize(
    "f",
    [GEOMETRIC, GeometricPhi(space_row(2), np.array([0.3, 0.4]), 0.5)],
    ids=["disk", "space"],
)
def test_lift_to_equals_repeated_lift_witness(f):
    w = level_sup(f, 1, 200, 3)
    direct, stepwise = lift_witness(w, 4), lift_witness(lift_witness(lift_witness(w, 2), 3), 4)
    assert direct.level == stepwise.level == 4
    assert direct.value == stepwise.value == w.value
    assert type(direct.matrix) is type(stepwise.matrix)
    arrays = [np.asarray(getattr(x.matrix, "entries", x.matrix)) for x in (direct, stepwise)]
    assert arrays[0].dtype == arrays[1].dtype and arrays[0].tobytes() == arrays[1].tobytes()


def _padded_reference(w, level):
    """The lift as np.pad builds it."""
    pad = ((0, level - w.level),) * 2
    if isinstance(w.matrix, OpSpaceMatrix):
        return np.pad(w.matrix.entries, pad + ((0, 0),))
    return np.pad(w.matrix, pad)


@pytest.mark.parametrize("start, level", [(1, 2), (1, 8), (2, 4)])
@pytest.mark.parametrize("over_space", [False, True], ids=["disk", "space"])
def test_lift_witness_has_the_bits_of_np_pad(over_space, start, level):
    rng = np.random.default_rng(start * level)
    shape = (start, start, 2) if over_space else (start, start)
    entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    entries.flat[0] = complex(-0.0, -0.0)
    entries.flat[-1] = complex(-0.0, 0.25)
    w = Witness(level=start, matrix=OpSpaceMatrix(space_row(2), entries) if over_space else entries, value=0.5)
    lifted = lift_witness(w, level)
    assert (lifted.level, lifted.value) == (level, 0.5)
    assert type(lifted.matrix) is type(w.matrix)
    array = lifted.matrix.entries if over_space else lifted.matrix
    reference = _padded_reference(w, level)
    assert array.shape == reference.shape and array.dtype == reference.dtype
    assert array.tobytes() == reference.tobytes()


def test_cb_lower_identity():
    est = cb_lower_bound(IDENTITY, 4, 2000, 11)
    assert est.lower >= 1.0 - 1e-3
    assert est.lower < 1.0


def test_cb_lower_scaled_identity():
    est = cb_lower_bound(Scale(0.5, IDENTITY), 2, 2000, 11)
    assert 0.5 - 1e-3 <= est.lower <= 0.5


def test_level_table_nondecreasing():
    est = cb_lower_bound(GEOMETRIC, 8, 800, 13)
    values = [est.level_table[m].value for m in sorted(est.level_table)]
    assert values == sorted(values)
    assert est.lower == values[-1]


def test_lower_bound_monotone_in_budget_and_level():
    small = cb_lower_bound(GEOMETRIC, 2, 400, 17).lower
    bigger_budget = cb_lower_bound(GEOMETRIC, 2, 1600, 17).lower
    more_levels = cb_lower_bound(GEOMETRIC, 4, 400, 17).lower
    assert bigger_budget >= small
    assert more_levels >= small


def test_upper_bound_rules():
    assert cb_upper_bound(IDENTITY) == 1.0
    assert cb_upper_bound(GEOMETRIC) == 2.0
    assert cb_upper_bound(Blaschke(1.0, 3, [])) == 1.0
    assert cb_upper_bound(GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5)) == 1.0
    assert cb_upper_bound(Product(IDENTITY, GEOMETRIC)) == 2.0
    assert cb_upper_bound(Sum(IDENTITY, GEOMETRIC)) == 3.0
    assert cb_upper_bound(Scale(2.0j, GEOMETRIC)) == 4.0


def test_upper_bound_blaschke_monomial_is_the_modulus_of_its_constant():
    # The constructor allows |c| up to 1 + 1e-12, and such a c·z reaches past 1.
    f = Blaschke(1.0 + 5e-13, 1)
    reached = matcore.operator_norm(amplify(f, 0.9999999999999 * np.eye(2)))
    assert reached > 1.0
    assert cb_upper_bound(f) == abs(f.c) >= reached
    for c in (1.0, -1.0, 1.0j, -1.0j):
        assert cb_upper_bound(Blaschke(c, 2)) == 1.0


def test_upper_bound_blaschke_certifies():
    f = Blaschke(1.0, 1, [0.5])
    bound = cb_upper_bound(f)
    # Coefficient sum of z(z-0.5)/(1-0.5z) converges to 2.
    assert 1.0 <= bound <= 2.0 + 1e-3


def test_upper_bound_blaschke_zeros_near_circle():
    # Σ|a_n| of z(z − a)/(1 − a·z) is 1 + 2a; the truncation grows with the
    # zero's modulus until the majorant tail past it is below rounding.
    assert 2.98 <= cb_upper_bound(Blaschke(1.0, 1, [0.99])) <= 3.0
    assert cb_upper_bound(Blaschke(1.0, 1, [0.5])) <= 2.0 + 1e-9


def test_a_blaschke_sandwich_expands_its_taylor_series_once(monkeypatch):
    # The upper bound and W_cap weigh one expansion, held by the function
    # object, at radii 1 and RADIUS_CAP; their bits are those of expanding
    # for each.  A fresh function object expands afresh.
    expand, calls = holofun.taylor_coefficients, []
    monkeypatch.setattr(holofun, "taylor_coefficients", lambda *args: calls.append(args) or expand(*args))
    f = Blaschke(1.0, 1, [0.5])
    est = sandwich(f, 8, 300, 1)
    assert len(calls) == 1
    assert est.upper.hex() == (2.0000000000013713).hex()
    assert cbnorm._upper_rules(f, RADIUS_CAP)[0].hex() == (1.9999950000073712).hex()
    tc = expand(Blaschke(1.0, 1, [0.5]), holofun.blaschke_truncation(f.zeros))
    for t in (1.0, RADIUS_CAP):
        weighted = cbnorm._weighted_sum(tc.coeffs, t) + tc.tail_bound
        assert cbnorm._upper_rules(f, t)[0].hex() == weighted.hex()
    assert len(calls) == 1
    sandwich(Blaschke(1.0, 1, [0.5]), 8, 300, 1)
    assert len(calls) == 2


def test_size_caps_reject_before_allocation():
    with pytest.raises(InvalidInputError):
        level_sup(IDENTITY, matcore.MAX_LEVEL + 1, 1, 1)
    for build in (space_mk, space_row, space_column, space_min_linf):
        with pytest.raises(InvalidInputError):
            build(MAX_SPACE_PARAM + 1)
    with pytest.raises(InvalidInputError):
        GcbElement(MIN2, matcore.MAX_LEVEL + 1, ())


def test_upper_bound_composite_linear_is_certified_norm():
    phi = np.array([0.3, 0.4], dtype=complex)
    f = Composite(IDENTITY, MIN2, phi, 0.7)
    assert cb_upper_bound(f) == 0.7


def test_scaling_covariance():
    c = 1.5 - 2.0j
    for f in (IDENTITY, GEOMETRIC, Blaschke(1.0, 1, [0.5])):
        assert cb_upper_bound(Scale(c, f)) == abs(c) * cb_upper_bound(f)
    w = level_sup(GEOMETRIC, 2, 1500, 19)
    scaled_value = matcore.operator_norm(amplify(Scale(c, GEOMETRIC), w.matrix))
    assert abs(scaled_value - abs(c) * w.value) < 1e-12


def test_sandwich_identity():
    est = sandwich(IDENTITY, 2, 2000, 23)
    assert est.upper == 1.0
    assert 0.999 <= est.lower <= est.upper


def test_sandwich_geometric():
    est = sandwich(GEOMETRIC, 2, 4000, 23)
    assert est.upper == 2.0
    assert 1.95 <= est.lower <= 2.0


def test_sandwich_product_rule():
    est = sandwich(Product(IDENTITY, GEOMETRIC), 2, 3000, 23)
    assert est.upper == 2.0
    assert est.lower <= 2.0


def test_sandwich_on_zoo_is_consistent():
    zoo = [
        IDENTITY,
        SQUARE,
        GEOMETRIC,
        Blaschke(1.0, 1, [0.5]),
        Sum(SQUARE, Scale(0.25, GEOMETRIC)),
        GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5),
        lacunary(8),
    ]
    for f in zoo:
        est = sandwich(f, 2, 600, 29)
        assert est.upper is not None
        assert est.lower <= est.upper + 1e-6


def test_understated_functional_norm_is_replaced_by_the_computed_one():
    # φ = (0.5, 0.45) on min-ℓ∞² has norm 0.95 and states 0.5.  With the
    # stated norm as r the upper bound was 0.5, `sandwich` raised on a lower
    # bound of 0.94998, and `schwarz_check` found 158 violations in 200.
    phi = [0.5, 0.45]
    f = Composite(IDENTITY, MIN2, phi, 0.5)
    upper = cb_upper_bound(f)
    assert upper == closed_form_dual_norm(MIN2, phi) == 0.95
    est = sandwich(f, 2, 300, 1)
    # Level 1 scans the circle φ(x) = RADIUS_CAP·‖φ‖·e^{iθ}, which holds the sup.
    assert est.lower == pytest.approx(RADIUS_CAP * upper, rel=1e-12)
    assert est.lower <= est.upper == upper
    report = schwarz_check(f, upper, 200, 1)
    assert report.passed and report.detail.startswith("0 violations")


def test_tiny_row_functional_sandwich_keeps_its_order():
    # The dual norm of φ once underflowed to 0.0, an upper bound under the
    # lower bound 4.999995e-170.
    f = Composite(IDENTITY, space_row(2), np.array([3e-170, 4e-170j]), 0.0)
    est = sandwich(f, 2, 50, 1)
    assert est.upper == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    assert 0.0 < est.lower <= est.upper


def test_sandwich_order_is_checked_at_every_scale(monkeypatch):
    # Upper bounds halved under lower bounds of about 1e-170 are out of order
    # by far more than rounding; an absolute slack of 1e-6 let both pass.
    f, g = Scale(1e-170, IDENTITY), Scale(1e-85, IDENTITY)
    upper_rules = cbnorm._upper_rules

    def halved(h, t=1.0):
        bound, rule = upper_rules(h, t)
        return (bound / 2.0 if h is f or h is g else bound), rule

    monkeypatch.setattr(cbnorm, "_upper_rules", halved)
    with pytest.raises(SandwichViolationError):
        sandwich(f, 2, 50, 1)
    assert not algebra_check(g, g, 2, 50, 1).passed


def test_linear_composite_matches_closed_form_dual_norm():
    phi = np.array([0.3, 0.4], dtype=complex)
    f = Composite(IDENTITY, MIN2, phi, 0.7)
    est = cb_lower_bound(f, 2, 4000, 31)
    assert closed_form_dual_norm(MIN2, phi) == 0.7
    assert est.lower == pytest.approx(RADIUS_CAP * closed_form_dual_norm(MIN2, phi), rel=1e-12)


def test_schwarz_check_identity_tight():
    est = sandwich(IDENTITY, 2, 500, 37)
    report = schwarz_check(IDENTITY, est.upper, 200, 37)
    assert report.passed
    assert report.worst_slack >= -1e-12


def test_schwarz_check_square_has_positive_slack():
    est = sandwich(SQUARE, 2, 500, 37)
    report = schwarz_check(SQUARE, est.upper, 200, 37)
    assert report.passed
    assert report.worst_slack > 0.0


def test_schwarz_check_geometric():
    est = sandwich(GEOMETRIC, 2, 500, 37)
    report = schwarz_check(GEOMETRIC, est.upper, 300, 41)
    assert report.passed


def test_schwarz_check_tolerance_is_relative():
    # ‖f_m(X)‖ = 1e-9·‖X‖ exceeds the stated 1e-12·‖X‖ in every trial, by far
    # less than an absolute 1e-8 but by 1000 times relatively.
    report = schwarz_check(PowerSeries([1e-9]), 1e-12, 50, 1)
    assert not report.passed
    assert report.detail.startswith("50 violations")


def test_schwarz_check_needs_upper():
    est = cb_lower_bound(IDENTITY, 1, 200, 1)
    for upper in (est.upper, float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            schwarz_check(IDENTITY, upper, 10, 1)


def test_algebra_check_pairs():
    assert algebra_check(IDENTITY, IDENTITY, 2, 800, 43).passed
    assert algebra_check(IDENTITY, GEOMETRIC, 2, 800, 43).passed
    report = algebra_check(GEOMETRIC, GEOMETRIC, 2, 1200, 43)
    assert report.passed
    assert report.worst_slack >= -1e-6


# A schedule names the levels a sandwich searches: the certified upper
# bounds every level's value, and upper − value is that level's gap.


def _same_estimate(a, b):
    assert (a.lower, a.upper, a.samples, a.provenance) == (b.lower, b.upper, b.samples, b.provenance)
    assert a.level_table.keys() == b.level_table.keys()
    bits = lambda w: (w.level, w.value, getattr(w.matrix, "entries", w.matrix).tobytes())
    assert all(bits(w) == bits(b.level_table[m]) for m, w in a.level_table.items())


@pytest.mark.parametrize("f", [BLASCHKE_HALF, GeometricPhi(MIN2, np.array([0.5, 0.3j]), 0.8)], ids=["disk", "space"])
def test_default_schedule_gives_the_default_record(f):
    # The schedule's distinct levels, in any order, are the default levels.
    _same_estimate(sandwich(f, 4, 200, 5), sandwich(f, 4, 200, 5, schedule=[4, 1, 2, 2]))


def test_schedule_without_level_one_scans_no_circle():
    est = sandwich(BLASCHKE_HALF, 4, 200, 5, schedule=[2, 4])
    assert sorted(est.level_table) == [2, 4] and est.samples == {2: 200, 4: 200}
    assert "circle scan" not in est.provenance
    assert "projected-ascent level sups at levels [2, 4]" in est.provenance


def test_question_probe_identity_bounded():
    est = sandwich(IDENTITY, 4, 600, 47, schedule=[1, 2, 4])
    assert est.upper == 1.0
    assert all(w.value <= 1.0 for w in est.level_table.values())


def test_question_probe_geometric09_bounded_near_nine():
    f = MoebiusQuotient(IDENTITY, 0.9)
    est = sandwich(f, 4, 2500, 47, schedule=[1, 2, 4])
    assert est.level_table[1].value >= 8.5
    assert max(w.value for w in est.level_table.values()) <= 10.0 <= est.upper


def test_question_probe_lacunary_control():
    f = lacunary(12)
    est = sandwich(f, 4, 600, 47, schedule=[1, 2, 4])
    assert est.upper == cb_upper_bound(f) < 1.0
    assert max(w.value for w in est.level_table.values()) <= 1.0


def test_question_probe_runs_over_a_space():
    f = GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5)
    est = sandwich(f, 2, 100, 1, schedule=[1, 2])
    assert sorted(est.level_table) == [1, 2]
    assert all(0.0 < w.value <= est.upper for w in est.level_table.values())


def test_validation_errors():
    with pytest.raises(InvalidInputError):
        level_sup(IDENTITY, 0, 100, 1)
    with pytest.raises(InvalidInputError):
        level_sup(IDENTITY, 1, 0, 1)
    with pytest.raises(InvalidInputError):
        cb_lower_bound(IDENTITY, 0, 100, 1)


@pytest.mark.parametrize("trials", [True, False, 1.5, "3", None])
def test_schwarz_check_rejects_non_integer_trials(trials):
    est = sandwich(IDENTITY, 1, 50, 1)
    with pytest.raises(InvalidInputError):
        schwarz_check(IDENTITY, est.upper, trials, 1)


def test_schwarz_check_accepts_integral_trials():
    est = sandwich(SQUARE, 1, 50, 1)
    report = schwarz_check(SQUARE, est.upper, 60, 7)
    assert report.trials == 60
    assert schwarz_check(SQUARE, est.upper, np.int64(60), 7) == report
    assert schwarz_check(SQUARE, est.upper, 60.0, 7) == report
