"""Tests for the predual model: representation costs, pairings, the sandwich."""

import numpy as np
import pytest

from cbnorm_lab.errors import InvalidInputError
from cbnorm_lab.gcb import (
    FunctionDictionary,
    GcbElement,
    GcbTerm,
    GridEntry,
    ScalarEntry,
    delta_element,
    delta_isometry_check,
    gcb_lower_bound,
    gcb_pairing,
    gcb_upper_bound,
    norming_dictionary,
    representation_cost,
)
from cbnorm_lab.holofun import PowerSeries, Scale
from cbnorm_lab.matcore import derive_rng
from cbnorm_lab.opspace import (
    OpSpaceMatrix,
    matrix_norm,
    realize,
    sample_matrix_ball,
    space_column,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)

SCALAR = space_scalar()
MK2 = space_mk(2)
SPACES = [SCALAR, MK2, space_row(2), space_column(2), space_min_linf(2)]

IDENTITY = PowerSeries([1.0])
SQUARE = PowerSeries([0.0, 1.0])


def scalar_matrix(values):
    arr = np.asarray(values, dtype=complex)
    return OpSpaceMatrix(SCALAR, arr.reshape(arr.shape[0], arr.shape[1], 1))


def eye_term(x, c=1.0):
    eye = np.eye(x.level, dtype=complex)
    return GcbTerm(complex(c), eye, x, eye)


def test_representation_cost_trivial_is_point_norm():
    x = sample_matrix_ball(MK2, 2, 0.75, 1)
    u = delta_element(x)
    assert representation_cost(u, [[0]]) == matrix_norm(x)


def test_representation_cost_scales_with_coefficient():
    x = sample_matrix_ball(MK2, 1, 0.4, 2)
    u1 = GcbElement(MK2, 1, (eye_term(x, 1.0),))
    u2 = GcbElement(MK2, 1, (eye_term(x, 2.0),))
    assert representation_cost(u2, [[0]]) == 2 * representation_cost(u1, [[0]])


def test_representation_cost_groupings_hand_formula():
    x = sample_matrix_ball(MK2, 1, 0.4, 3)
    y = sample_matrix_ball(MK2, 1, 0.7, 4)
    u = GcbElement(MK2, 1, (eye_term(x), eye_term(y)))
    a, b = matrix_norm(x), matrix_norm(y)
    separate = representation_cost(u, [[0], [1]])
    merged = representation_cost(u, [[0, 1]])
    assert abs(separate - (a + b)) < 1e-12
    # Merged group: sqrt(2)·sqrt(2)·max(a, b).
    assert abs(merged - 2 * max(a, b)) < 1e-12


def test_representation_cost_rejects_bad_grouping():
    x = sample_matrix_ball(MK2, 1, 0.4, 5)
    u = GcbElement(MK2, 1, (eye_term(x),))
    with pytest.raises(InvalidInputError):
        representation_cost(u, [[0, 0]])
    with pytest.raises(InvalidInputError):
        representation_cost(u, [])


def test_gcb_upper_bound_empty_element():
    u = GcbElement(MK2, 2, ())
    assert gcb_upper_bound(u, 10, 1) == 0.0


def test_gcb_upper_bound_delta_is_point_norm():
    x = sample_matrix_ball(MK2, 2, 0.6, 6)
    u = delta_element(x)
    upper = gcb_upper_bound(u, 2000, 7)
    assert abs(upper - matrix_norm(x)) < 1e-12


def test_gcb_upper_bound_duplicate_terms():
    x = sample_matrix_ball(MK2, 1, 0.5, 8)
    u = GcbElement(MK2, 1, (eye_term(x), eye_term(x)))
    upper = gcb_upper_bound(u, 3000, 9)
    lower = gcb_lower_bound(u, norming_dictionary(MK2, x))
    assert abs(lower - 2 * matrix_norm(x)) < 1e-9
    assert upper >= lower - 1e-9
    assert abs(upper - 2 * matrix_norm(x)) < 1e-9


def _random_element(space, level, point_levels, seed):
    rng = derive_rng(seed)
    gaussian = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    terms = []
    for i, k in enumerate(point_levels):
        x = sample_matrix_ball(space, k, float(rng.uniform(0.2, 0.9)), seed + i)
        terms.append(GcbTerm(complex(*rng.standard_normal(2)), gaussian(level, k), x, gaussian(k, level)))
    return GcbElement(space, level, tuple(terms))


def test_gcb_upper_bound_budget_one_is_the_given_representation():
    # The first evaluation is the single group with unit scales; the first
    # partition lists the indices last to first, and the sums follow it.
    for seed, space in enumerate(SPACES):
        u = _random_element(space, 2, (1, 2, 1), seed)
        assert gcb_upper_bound(u, 1, seed) == representation_cost(u, [[2, 1, 0]])


def test_gcb_upper_bound_nonincreasing_in_budget():
    for seed, space in enumerate(SPACES):
        u = _random_element(space, 2, (2, 1, 2), 10 + seed)
        values = [gcb_upper_bound(u, budget, 4) for budget in (1, 2, 35, 300)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


def test_gcb_pairing_grid_matches_quadruple_loop():
    # Entry (r·m + k, s·m + l) of a grid's amplification at x is f_kl(x_rs),
    # and each term is sandwiched by α ⊗ I_m and β ⊗ I_m.
    space = space_min_linf(2)
    rng = np.random.default_rng(13)
    grid = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    u = _random_element(space, 2, (2, 2, 2), 14)
    expected = np.zeros((4, 4), dtype=complex)
    for t in u.terms:
        amp = np.zeros((4, 4), dtype=complex)
        for r in range(2):
            for s in range(2):
                for k in range(2):
                    for l in range(2):
                        amp[2 * r + k, 2 * s + l] = np.dot(grid[k, l], t.point.entries[r, s])
        eye = np.eye(2)
        expected += t.c * (np.kron(t.alpha, eye) @ amp @ np.kron(t.beta, eye))
    out = gcb_pairing(u, GridEntry(space, grid, 1.0))
    assert np.max(np.abs(out - expected)) < 1e-15


def test_gcb_pairing_linear_functional_gives_functional_image():
    rng = np.random.default_rng(10)
    x = sample_matrix_ball(space_min_linf(2), 2, 0.8, 11)
    u = delta_element(x)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    grid = phi.reshape(1, 1, 2)
    entry = GridEntry(space_min_linf(2), grid, 1.0)
    out = gcb_pairing(u, entry)
    assert np.allclose(out, x.entries @ phi, atol=1e-13)


def test_gcb_pairing_zero_element():
    u = GcbElement(MK2, 2, ())
    entry = ScalarEntry(SQUARE, 1.0)
    assert np.array_equal(gcb_pairing(u, entry), np.zeros((2, 2)))


def test_gcb_pairing_two_terms_hand_expansion():
    x = scalar_matrix([[0.3]])
    y = scalar_matrix([[0.5j]])
    alpha = np.array([[1.0], [2.0]], dtype=complex)
    beta = np.array([[0.5, -1.0]], dtype=complex)
    u = GcbElement(SCALAR, 2, (GcbTerm(2.0, alpha, x, beta), eye_term(scalar_matrix([[0.1, 0.0], [0.0, 0.2]]))))
    entry = ScalarEntry(SQUARE, 1.0)
    first = 2.0 * alpha @ np.array([[0.3**2]], dtype=complex) @ beta
    second = np.diag([0.1**2, 0.2**2]).astype(complex)
    assert np.allclose(gcb_pairing(u, entry), first + second, atol=1e-15)


def test_gcb_pairing_respects_scale_exactly():
    x = sample_matrix_ball(MK2, 2, 0.5, 12)
    u = delta_element(x)
    # Scalar disk functions pair through the realized matrix on the scalar
    # space only; use a functional composite on MK2 instead.
    phi = np.zeros(4, dtype=complex)
    phi[0] = 0.4
    from cbnorm_lab.holofun import Composite

    f = Composite(SQUARE, MK2, phi, 0.5)
    base = gcb_pairing(u, ScalarEntry(f, 1.0))
    scaled = gcb_pairing(u, ScalarEntry(Scale(2.0 - 1.0j, f), 1.0))
    assert np.array_equal(scaled, (2.0 - 1.0j) * base)


def test_gcb_pairing_linear_in_element():
    x = sample_matrix_ball(MK2, 1, 0.5, 13)
    entry = GridEntry(MK2, np.transpose(MK2.basis, (1, 2, 0)), 1.0)
    u1 = GcbElement(MK2, 1, (eye_term(x, 1.0),))
    u2 = GcbElement(MK2, 1, (eye_term(x, -0.5j),))
    combined = GcbElement(MK2, 1, (eye_term(x, 1.0 - 0.5j),))
    lhs = gcb_pairing(combined, entry)
    rhs = gcb_pairing(u1, entry) + gcb_pairing(u2, entry)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_gcb_lower_bound_delta_reaches_point_norm():
    for space in SPACES:
        x = sample_matrix_ball(space, 2, 0.7, 14)
        u = delta_element(x)
        lower = gcb_lower_bound(u, norming_dictionary(space, x))
        assert lower >= matrix_norm(x) - 1e-6
        assert lower <= matrix_norm(x) + 1e-9


def test_gcb_lower_bound_skips_degenerate_entries():
    x = sample_matrix_ball(MK2, 1, 0.5, 15)
    u = delta_element(x)
    dead = FunctionDictionary((ScalarEntry(PowerSeries([0.0]), 0.0),))
    assert gcb_lower_bound(u, dead) == 0.0


def test_gcb_sandwich_random_elements():
    rng = np.random.default_rng(16)
    for trial in range(10):
        space = SPACES[trial % len(SPACES)]
        terms = []
        n = int(rng.integers(1, 3))
        for i in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 3))
            x = sample_matrix_ball(space, k, float(rng.uniform(0.2, 0.9)), 100 * trial + i)
            alpha = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            beta = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            terms.append(GcbTerm(complex(rng.standard_normal()), alpha, x, beta))
        u = GcbElement(space, n, tuple(terms))
        upper = gcb_upper_bound(u, 800, trial)
        lower = gcb_lower_bound(u, norming_dictionary(space))
        assert lower <= upper + 1e-6


def test_delta_isometry_scalar():
    report = delta_isometry_check(scalar_matrix([[0.5]]), 500, 17)
    assert report.passed
    assert abs(report.point_norm - 0.5) < 1e-12
    assert abs(report.upper - 0.5) < 1e-9
    assert abs(report.lower - 0.5) < 1e-6


def test_delta_isometry_scaled_identity_level2():
    entries = np.zeros((2, 2, 4), dtype=complex)
    entries[0, 0, 0] = 0.9
    entries[0, 0, 3] = 0.9
    entries[1, 1, 0] = 0.9
    entries[1, 1, 3] = 0.9
    x = OpSpaceMatrix(MK2, entries)
    assert np.allclose(realize(x), 0.9 * np.eye(4), atol=0)
    report = delta_isometry_check(x, 500, 18)
    assert report.passed
    assert abs(report.point_norm - 0.9) < 1e-12


def test_delta_isometry_random_row_space_level3():
    x = sample_matrix_ball(space_row(2), 3, 0.85, 19)
    report = delta_isometry_check(x, 500, 19)
    assert report.passed
    assert report.lower_gap <= 1e-4


def test_delta_isometry_rejects_boundary_point():
    entries = np.zeros((1, 1, 1), dtype=complex)
    entries[0, 0, 0] = 1.0
    with pytest.raises(InvalidInputError):
        delta_isometry_check(OpSpaceMatrix(SCALAR, entries), 100, 1)


def test_gcb_element_rejects_boundary_points():
    entries = np.zeros((1, 1, 1), dtype=complex)
    entries[0, 0, 0] = 1.0 - 1e-12
    x = OpSpaceMatrix(SCALAR, entries)
    with pytest.raises(InvalidInputError):
        GcbElement(SCALAR, 1, (eye_term(x),))


def test_dictionary_normalizes_large_bounds():
    d = FunctionDictionary((ScalarEntry(IDENTITY, 4.0),))
    entry = d.entries[0]
    assert entry.bound == 1.0
    assert isinstance(entry.function, Scale)
    assert entry.function.c == 0.25


def test_dictionary_rejects_empty():
    with pytest.raises(InvalidInputError):
        FunctionDictionary(())
