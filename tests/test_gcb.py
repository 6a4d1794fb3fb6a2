"""Tests for the predual model: representation costs, pairings, the sandwich."""

import numpy as np
import pytest

from cbnorm_lab import gcb
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
)
from cbnorm_lab.holofun import Composite, GeometricPhi, PowerSeries, Scale
from cbnorm_lab.matcore import derive_rng, operator_norm, top_singular_pair
from cbnorm_lab.mconvex import coordinate_grid
from cbnorm_lab.opspace import (
    ConcreteOperatorSpace,
    OpSpaceMatrix,
    block_matrix,
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

# Pairings computed in different orders of operations agree to this many
# units of the largest entry.
_ULPS = 8 * 2.0**-52


def scalar_matrix(values):
    arr = np.asarray(values, dtype=complex)
    return OpSpaceMatrix(SCALAR, arr.reshape(arr.shape[0], arr.shape[1], 1))


def eye_term(x, c=1.0):
    eye = np.eye(x.level, dtype=complex)
    return GcbTerm(complex(c), eye, x, eye)


def coordinate_dictionary(space):
    """The coordinate grid alone; its cb norm as a map into M_N is exactly 1."""
    return FunctionDictionary((GridEntry(space, coordinate_grid(space), 1.0),))


def test_gcb_upper_bound_empty_element():
    u = GcbElement(MK2, 2, ())
    assert gcb_upper_bound(u, 10) == 0.0


def test_gcb_upper_bound_delta_is_point_norm():
    # One term costs √‖I‖·√‖ ‖x‖²·I ‖ = ‖x‖ at the start, bit for bit, and
    # its two shares are equal, so the search never moves it.
    for i, space in enumerate(SPACES):
        for level in (1, 2, 3):
            x = sample_matrix_ball(space, level, 0.6, 6 + 10 * i + level)
            assert gcb_upper_bound(delta_element(x), 2000) == matrix_norm(x)
            report = delta_isometry_check(x, 300)
            assert report.upper == report.point_norm and report.upper_gap == 0.0


def test_gcb_upper_bound_duplicate_terms():
    x = sample_matrix_ball(MK2, 1, 0.5, 8)
    u = GcbElement(MK2, 1, (eye_term(x), eye_term(x)))
    upper = gcb_upper_bound(u, 3000)
    lower = gcb_lower_bound(u, coordinate_dictionary(MK2))
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


def _one_group_cost(u):
    """‖Σαα*‖^½·‖Σβ*β‖^½·max |c|·‖x‖: the cost of the representation as given,
    all terms in one group at unit scales."""
    row = sum(t.alpha @ t.alpha.conj().T for t in u.terms)
    col = sum(t.beta.conj().T @ t.beta for t in u.terms)
    peak = max(abs(t.c) * matrix_norm(t.point) for t in u.terms)
    return np.sqrt(operator_norm(row)) * np.sqrt(operator_norm(col)) * peak


def test_gcb_upper_bound_budget_one_is_the_given_representation():
    # The start keeps each α as given and moves wᵢ = |cᵢ|·‖xᵢ‖ onto βᵢ as wᵢ²,
    # a representation of the same element: √‖Σαα*‖·√‖Σwᵢ²β*β‖, with the sums
    # taken first term first and the norms from SVDs with vectors.
    for seed, space in enumerate(SPACES):
        u = _random_element(space, 2, (1, 2, 1), seed)
        row = sum(t.alpha @ t.alpha.conj().T for t in u.terms)
        col = sum((abs(t.c) * matrix_norm(t.point)) ** 2 * (t.beta.conj().T @ t.beta) for t in u.terms)
        start = np.sqrt(top_singular_pair(row)[0]) * np.sqrt(top_singular_pair(col)[0])
        assert gcb_upper_bound(u, 1) == start
        assert start <= _one_group_cost(u) * (1 + 1e-12)


def test_gcb_upper_bound_nonincreasing_in_budget():
    for seed, space in enumerate(SPACES):
        u = _random_element(space, 2, (2, 1, 2), 10 + seed)
        values = [gcb_upper_bound(u, budget) for budget in (1, 2, 35, 300)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


def _singleton_cost(u):
    """Σ |cᵢ|·‖xᵢ‖·‖αᵢ‖·‖βᵢ‖: the cost of every term in a group of its own."""
    return sum(abs(t.c) * matrix_norm(t.point) * operator_norm(t.alpha) * operator_norm(t.beta) for t in u.terms)


def test_gcb_upper_bound_lies_below_the_given_and_singleton_costs():
    # The start costs at most the given representation and the search only
    # accepts descents; one group rescaled costs at most any grouping, the
    # singletons included, and on level-1 elements exactly as much
    # (Cauchy–Schwarz), so the search must converge there.  The lower bound
    # can exceed the upper by rounding alone.
    for trial in range(300):
        rng = np.random.default_rng([61, trial])
        space, level = SPACES[trial % len(SPACES)], int(rng.integers(1, 4))
        point_levels = [int(k) for k in rng.integers(1, 4, int(rng.integers(1, 6)))]
        given = _random_element(space, level, point_levels, 1000 * trial)
        scaled = [GcbTerm(t.c, t.alpha * np.exp(rng.uniform(-3, 3)), t.point, t.beta) for t in given.terms]
        u = GcbElement(space, level, tuple(scaled))
        upper = gcb_upper_bound(u, 300)
        assert upper <= _one_group_cost(u) * (1 + 1e-12)
        assert upper <= _singleton_cost(u) * (1 + 1e-12)
        assert gcb_lower_bound(u, coordinate_dictionary(space)) <= upper * (1 + 1e-12)


def test_gcb_upper_bound_stacks_each_sweep(monkeypatch):
    # An SVD-count guard: the points' norms come with the element, and each
    # cost evaluation is one SVD call on the stack of its two Gram sums; a
    # budget of B evaluations takes at most B of them, and this element
    # converges in fewer than 300.
    u = _random_element(MK2, 2, (2, 1, 2), 52)
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for budget in (1, 5, 300):
        shapes.clear()
        gcb_upper_bound(u, budget)
        assert set(shapes) == {(2, 2, 2)}
        assert len(shapes) == budget if budget < 300 else len(shapes) < 40


@pytest.mark.parametrize("budget", [True, False, 1.5, "3", None])
def test_gcb_rejects_non_integer_budgets(budget):
    x = sample_matrix_ball(MK2, 2, 0.5, 53)
    with pytest.raises(InvalidInputError, match="budget"):
        gcb_upper_bound(delta_element(x), budget)
    with pytest.raises(InvalidInputError, match="budget"):
        delta_isometry_check(x, budget)


def test_gcb_accepts_integer_budgets():
    u = _random_element(MK2, 2, (2, 1), 53)
    for budget in (np.int64(40), 40.0):
        assert gcb_upper_bound(u, budget) == gcb_upper_bound(u, 40)


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
    assert np.max(np.abs(out - expected)) <= _ULPS * np.max(np.abs(expected))


def _custom_space():
    rng = np.random.default_rng(20)
    return ConcreteOperatorSpace(rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))


_LINEARIZATION_SPACES = [*SPACES, _custom_space()]


def _functional_norm_bound(space, phi):
    """|φ(y)| <= Σ |φ_k|·|y_k|, and the coefficient y_k = ⟨D_k, realized y⟩ of
    the dual basis D = pinv of the coordinate matrix has |y_k| <= ‖D_k‖_F·√N·‖y‖."""
    dual = np.linalg.pinv(space.basis.reshape(space.dim, -1))
    return float(np.sum(np.abs(phi) * np.linalg.norm(dual, axis=0)) * np.sqrt(space.ambient))


def _kronecker_pairing(u, grid):
    """Σ c·(α ⊗ I_m)·G(x)·(β ⊗ I_m), with G(x) the grid's value at the point."""
    eye = np.eye(grid.shape[0])
    values = [block_matrix(t.point.entries, np.moveaxis(grid, -1, 0)) for t in u.terms]
    return sum(t.c * (np.kron(t.alpha, eye) @ g @ np.kron(t.beta, eye)) for t, g in zip(u.terms, values))


@pytest.mark.parametrize("space_index", range(len(_LINEARIZATION_SPACES)))
@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_grid_entries_pair_at_the_linearized_point(space_index, level, m):
    space = _LINEARIZATION_SPACES[space_index]
    seed = 100 * space_index + 10 * level + m
    u = _random_element(space, level, (1, 3, 2)[: 1 + seed % 3], seed)
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((m, m, space.dim)) + 1j * rng.standard_normal((m, m, space.dim))
    point = gcb.linearize(u)
    out = gcb_pairing(u, GridEntry(space, grid, 1.0))
    functionals = np.ascontiguousarray(np.moveaxis(grid, -1, 0))
    assert np.array_equal(out, block_matrix(point.entries, functionals))
    expected = _kronecker_pairing(u, grid)
    assert np.max(np.abs(out - expected)) <= _ULPS * np.max(np.abs(expected))
    # A linear scalar entry, x ↦ φ(x), pairs term by term; the 1×1 grid φ at
    # the linearized point agrees with it.
    phi = 0.5 * grid[0, 0] / _functional_norm_bound(space, grid[0, 0])
    linear = gcb_pairing(u, ScalarEntry(Composite(IDENTITY, space, phi, 0.5), 1.0))
    functional = gcb_pairing(u, GridEntry(space, phi.reshape(1, 1, -1), 1.0))
    assert np.max(np.abs(functional - linear)) <= _ULPS * np.max(np.abs(linear))
    coordinates = gcb_pairing(u, GridEntry(space, coordinate_grid(space), 1.0))
    assert operator_norm(coordinates) == matrix_norm(point)


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
        lower = gcb_lower_bound(u, coordinate_dictionary(space))
        assert lower >= matrix_norm(x) - 1e-6
        assert lower <= matrix_norm(x) + 1e-9


def test_a_scalar_entry_sees_what_no_linear_entry_does():
    # δ([[0.5]]) + δ([[−0.5]]) linearizes to the zero point, so every linear
    # entry, the coordinate grid among them, pairs it to 0.  A holomorphic
    # entry sees Σ cᵢ·αᵢ·f(xᵢ)·βᵢ instead: z² pairs it to 0.25 + 0.25.
    u = GcbElement(SCALAR, 1, (eye_term(scalar_matrix([[0.5]])), eye_term(scalar_matrix([[-0.5]]))))
    assert not gcb.linearize(u).entries.any()
    assert gcb_lower_bound(u, coordinate_dictionary(SCALAR)) == 0.0
    square = ScalarEntry(SQUARE, 1.0)
    assert np.array_equal(gcb_pairing(u, square), [[0.5]])
    lower = gcb_lower_bound(u, FunctionDictionary((coordinate_dictionary(SCALAR).entries[0], square)))
    # Each term costs 0.5, and the search starts from their one group, which
    # costs at most their sum.
    assert lower == 0.5 < gcb_upper_bound(u, 300) <= 1.0 + _ULPS


@pytest.mark.parametrize("level", [1, 3])
def test_an_element_with_no_terms_pairs_to_zero(level):
    u = GcbElement(MK2, level, ())
    point = gcb.linearize(u)
    assert point.space is MK2 and point.entries.shape == (level, level, MK2.dim)
    assert not point.entries.any() and not np.signbit(point.entries.view(float)).any()
    pairing = gcb_pairing(u, coordinate_dictionary(MK2).entries[0])
    assert pairing.shape == (2 * level, 2 * level) and not pairing.any()
    assert gcb_lower_bound(u, coordinate_dictionary(MK2)) == 0.0


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
        upper = gcb_upper_bound(u, 800)
        # φ = 0.5·e₀ has dual norm 0.5 on every builder space, so φ/(1 − φ)
        # has cb norm at most 0.5/(1 − 0.5) = 1.
        phi = np.zeros(space.dim, dtype=complex)
        phi[0] = 0.5
        dictionary = FunctionDictionary(
            (*coordinate_dictionary(space).entries, ScalarEntry(GeometricPhi(space, phi, 0.5), 1.0))
        )
        lower = gcb_lower_bound(u, dictionary)
        assert lower <= upper + 1e-6


def test_delta_isometry_scalar():
    report = delta_isometry_check(scalar_matrix([[0.5]]), 500)
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
    report = delta_isometry_check(x, 500)
    assert report.passed
    assert abs(report.point_norm - 0.9) < 1e-12


def test_delta_isometry_random_row_space_level3():
    x = sample_matrix_ball(space_row(2), 3, 0.85, 19)
    report = delta_isometry_check(x, 500)
    assert report.passed
    assert report.lower_gap <= 1e-4


def test_delta_isometry_lower_bound_is_the_point_norm_exactly():
    # The coordinate grid pairs δ(x) to realize(x), so the lower bound is the
    # point's norm with no rounding at all; 30 points over the builder spaces.
    for i, space in enumerate(SPACES):
        for level in (1, 2, 3):
            for j, radius in enumerate((0.3, 0.95)):
                x = sample_matrix_ball(space, level, radius, 200 + 10 * i + 2 * level + j)
                report = delta_isometry_check(x, 40)
                assert report.passed
                assert report.lower == report.point_norm
                assert report.lower_gap == 0.0


def test_delta_isometry_decomposes_the_point_once(monkeypatch):
    # ‖x‖ is one SVD of realize(x), which the element keeps; the upper bound
    # takes one SVD, its start, and the lower bound one of the coordinate
    # pairing, which is realize(x) bit for bit.
    for space in (MK2, space_row(3)):
        x = sample_matrix_ball(space, 2, 0.7, 23)
        target = realize(x)
        inputs = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            inputs.append(np.array(a, copy=True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        assert delta_isometry_check(x, 40).passed
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert [a.shape for a in inputs] == [target.shape, (2, 2, 2), target.shape]
        assert inputs[0].tobytes() == inputs[2].tobytes() == target.tobytes()


def test_delta_isometry_rejects_boundary_point():
    entries = np.zeros((1, 1, 1), dtype=complex)
    entries[0, 0, 0] = 1.0
    with pytest.raises(InvalidInputError):
        delta_isometry_check(OpSpaceMatrix(SCALAR, entries), 100)


def test_gcb_element_rejects_boundary_points():
    entries = np.zeros((1, 1, 1), dtype=complex)
    entries[0, 0, 0] = 1.0 - 1e-12
    x = OpSpaceMatrix(SCALAR, entries)
    with pytest.raises(InvalidInputError):
        GcbElement(SCALAR, 1, (eye_term(x),))


def test_dictionary_normalizes_large_bounds():
    # Entries stay as given, and the lower bound divides each pairing norm by
    # its entry's bound: a bound-4 entry gives a quarter of the bound-1 one.
    u = delta_element(sample_matrix_ball(MK2, 2, 0.6, 6))
    entries = (
        lambda bound: ScalarEntry(Composite(SQUARE, MK2, [0.3, 0.1j, 0.0, 0.2], 0.6), bound),
        lambda bound: GridEntry(MK2, coordinate_grid(MK2), bound),
    )
    for entry in entries:
        one = gcb_lower_bound(u, FunctionDictionary((entry(1.0),)))
        d = FunctionDictionary((entry(4.0),))
        assert d.entries[0].bound == 4.0
        assert one > 0.0 and abs(gcb_lower_bound(u, d) - one / 4) <= np.spacing(one / 4)


def test_dictionary_rejects_empty():
    with pytest.raises(InvalidInputError):
        FunctionDictionary(())


def _element_over(space):
    return delta_element(OpSpaceMatrix(space, np.zeros((1, 1, space.dim), dtype=complex)))


_REFUSED = {
    "grid entry over another space": (
        lambda: gcb_pairing(_element_over(MK2), GridEntry(SCALAR, coordinate_grid(SCALAR), 1.0)),
        "grid entry and element live over different spaces",
    ),
    "disk entry on a non-scalar space": (
        lambda: gcb_pairing(_element_over(MK2), ScalarEntry(SQUARE, 1.0)),
        "disk-domain dictionary entries need the scalar space",
    ),
    "a term that is no GcbTerm": (
        lambda: GcbElement(MK2, 1, (object(),)),
        "terms must be GcbTerm values over the element's space",
    ),
    "a negative entry bound": (
        lambda: FunctionDictionary((ScalarEntry(SQUARE, -1.0),)),
        "entry bounds must be finite and nonnegative",
    ),
    "a non-finite entry bound": (
        lambda: FunctionDictionary((ScalarEntry(SQUARE, float("nan")),)),
        "entry bounds must be finite and nonnegative",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_gcb_refuses_with_its_message(case):
    make, message = _REFUSED[case]
    with pytest.raises(InvalidInputError) as raised:
        make()
    assert str(raised.value) == message
