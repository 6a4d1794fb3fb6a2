"""Tests for the cb-norm sandwich: level sups, lifting, bound rules, checks."""

import numpy as np
import pytest

from cbnorm_lab import matcore
from cbnorm_lab.cbnorm import (
    RADIUS_CAP,
    _disk_problem,
    _lift_to,
    algebra_check,
    cb_lower_bound,
    cb_upper_bound,
    level_sup,
    lift_witness,
    question_probe,
    sandwich,
    schwarz_check,
    serialize_matrix,
    witness_value,
)
from cbnorm_lab.errors import InvalidInputError
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
    closed_form_dual_norm,
    space_column,
    space_min_linf,
    space_mk,
    space_row,
)

IDENTITY = PowerSeries([1.0])
SQUARE = PowerSeries([0.0, 1.0])
GEOMETRIC = MoebiusQuotient(IDENTITY, 0.5)
MIN2 = space_min_linf(2)


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


@pytest.mark.parametrize("m", [1, 2, 8])
def test_disk_projection_returns_an_inside_stack_as_given(m):
    _, project, _, _ = _disk_problem(GEOMETRIC, m)
    rng = np.random.default_rng(40 + m)
    points = rng.standard_normal((6, m, m)) + 1j * rng.standard_normal((6, m, m))
    at_norms = lambda radii: points * (radii / matcore.operator_norms(points))[:, None, None]
    inside = at_norms(np.linspace(0.2, 0.9, 6))
    assert project(inside) is inside
    # With a point clipped, each point is projected as it would be alone,
    # bit for bit.
    for radii in (np.linspace(0.5, 1.5, 6), np.linspace(1.1, 2.0, 6)):
        stack = at_norms(radii)
        out = project(stack)
        expected = np.stack([matcore.project_ball(point, RADIUS_CAP) for point in stack])
        assert out.shape == stack.shape and out.tobytes() == expected.tobytes()
        assert not np.array_equal(out, stack)


def test_lift_witness_preserves_value():
    w = level_sup(GEOMETRIC, 1, 2000, 7)
    lifted = lift_witness(w)
    assert lifted.level == w.level + 1
    assert lifted.value == w.value
    assert abs(witness_value(GEOMETRIC, lifted) - w.value) < 1e-12


def test_lift_twice_is_two_by_two_zero_block():
    w = level_sup(SQUARE, 1, 500, 3)
    twice = lift_witness(lift_witness(w))
    mat = np.asarray(twice.matrix)
    assert mat.shape == (3, 3)
    assert np.all(mat[1:, :] == 0) and np.all(mat[:, 1:] == 0)


@pytest.mark.parametrize(
    "f",
    [GEOMETRIC, GeometricPhi(space_row(2), np.array([0.3, 0.4]), 0.5)],
    ids=["disk", "space"],
)
def test_lift_to_equals_repeated_lift_witness(f):
    w = level_sup(f, 1, 200, 3)
    direct, stepwise = _lift_to(w, 4), lift_witness(lift_witness(lift_witness(w)))
    assert direct.level == stepwise.level == 4
    assert direct.value == stepwise.value == w.value
    assert type(direct.matrix) is type(stepwise.matrix)
    assert serialize_matrix(direct.matrix) == serialize_matrix(stepwise.matrix)
    arrays = [np.asarray(getattr(x.matrix, "entries", x.matrix)) for x in (direct, stepwise)]
    assert arrays[0].dtype == arrays[1].dtype and arrays[0].tobytes() == arrays[1].tobytes()


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
    assert upper - 1e-4 < est.lower <= est.upper == upper
    report = schwarz_check(f, upper, 200, 1)
    assert report.passed and report.detail.startswith("0 violations")


def test_linear_composite_matches_closed_form_dual_norm():
    phi = np.array([0.3, 0.4], dtype=complex)
    f = Composite(IDENTITY, MIN2, phi, 0.7)
    est = cb_lower_bound(f, 2, 4000, 31)
    assert closed_form_dual_norm(MIN2, phi) == 0.7
    assert abs(est.lower - closed_form_dual_norm(MIN2, phi)) < 1e-3


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


def test_question_probe_identity_bounded():
    report = question_probe(IDENTITY, 4, 600, 47)
    assert report.verdict == "bounded"
    assert all(v <= 1.0 for v in report.values)
    assert "HEURISTIC" in report.note


def test_question_probe_geometric09_bounded_near_nine():
    f = MoebiusQuotient(IDENTITY, 0.9)
    report = question_probe(f, 4, 2500, 47)
    assert report.verdict == "bounded"
    assert report.values[0] >= 8.5
    assert max(report.values) <= 10.0


def test_question_probe_lacunary_control():
    f = lacunary(12)
    assert cb_upper_bound(f) < 1.0
    report = question_probe(f, 4, 600, 47)
    assert report.verdict == "bounded"
    assert max(report.values) <= 1.0


def test_question_probe_rejects_space_domain():
    f = GeometricPhi(MIN2, np.array([0.5, 0.0], dtype=complex), 0.5)
    with pytest.raises(InvalidInputError):
        question_probe(f, 2, 100, 1)


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
