"""Tests for symbolic holomorphic functions, amplification, and Taylor data."""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from cbnorm_lab import holofun, matcore, opspace
from cbnorm_lab.errors import ConfigurationError, DomainError, InvalidInputError
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
    taylor_coefficients,
)
from cbnorm_lab.opspace import OpSpaceMatrix, closed_form_dual_norm, space_min_linf

IDENTITY = PowerSeries([1.0])
SQUARE = PowerSeries([0.0, 1.0])
GEOMETRIC = MoebiusQuotient(IDENTITY, 0.5)
BLASCHKE = Blaschke(1.0, 1, [0.5])

MIN2 = space_min_linf(2)

PHI = np.array([0.4, 0.2], dtype=complex)
GEOM_PHI = GeometricPhi(MIN2, PHI, 0.6)
COMPOSITE = Composite(SQUARE, MIN2, PHI, 0.6)

DISK_ZOO = [
    IDENTITY,
    SQUARE,
    GEOMETRIC,
    BLASCHKE,
    Product(IDENTITY, GEOMETRIC),
    Sum(SQUARE, BLASCHKE),
    Scale(2.0 - 1.0j, GEOMETRIC),
]


def value_at(f, z):
    """f at one point: a complex number for a disk function, a coefficient
    vector over the domain space for a functional composite."""
    if f.domain_space is None:
        return amplify(f, np.array([[z]]))[0, 0]
    return amplify(f, OpSpaceMatrix(f.domain_space, np.asarray(z).reshape(1, 1, -1)))[0, 0]


def _disk_ball(rng, m, radius):
    """An m×m matrix of norm `radius`: the one entry of a sample over the scalar space."""
    return opspace._random_matrix_ball(rng, opspace.space_scalar(), m, radius)[..., 0]


def test_evaluate_linear():
    assert value_at(PowerSeries([0.5]), 0.4) == 0.2


def test_evaluate_blaschke_zero_of_product():
    assert abs(value_at(BLASCHKE, 0.5)) == 0.0


def test_evaluate_vanishes_at_origin():
    for f in DISK_ZOO:
        assert value_at(f, 0.0) == 0.0
    zero = np.zeros(2, dtype=complex)
    assert value_at(GEOM_PHI, zero) == 0.0
    assert value_at(COMPOSITE, zero) == 0.0


def test_evaluate_rejects_boundary():
    with pytest.raises(DomainError):
        value_at(IDENTITY, 1.0)
    with pytest.raises(DomainError):
        value_at(GEOMETRIC, 1.0 + 0.2j)


def test_evaluate_matches_closed_forms():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = 0.9 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2.0
        if abs(z) >= 1.0:
            continue
        assert abs(value_at(GEOMETRIC, z) - z / (1 - 0.5 * z)) < 1e-14
        expected = z * (z - 0.5) / (1 - 0.5 * z)
        assert abs(value_at(BLASCHKE, z) - expected) < 1e-14


def test_amplify_identity_returns_argument():
    x = _disk_ball(np.random.default_rng(1), 3, 0.8)
    assert np.array_equal(amplify(IDENTITY, x), x)


def test_amplify_square_diagonal():
    x = np.diag([0.5, 0.3]).astype(complex)
    assert np.allclose(amplify(SQUARE, x), np.diag([0.25, 0.09]), atol=0)


def test_amplify_square_entrywise_hand_check():
    x = 0.9 * np.ones((2, 2), dtype=complex) / 2.0
    out = amplify(SQUARE, x)
    assert np.allclose(out, np.full((2, 2), 0.45**2), atol=0)
    assert abs(matcore.operator_norm(out) - 2 * 0.45**2) < 1e-14


def test_amplify_rejects_boundary_matrix():
    with pytest.raises(DomainError):
        amplify(IDENTITY, np.eye(2))


def test_amplify_commutes_with_direct_sums_exactly():
    rng = np.random.default_rng(2)
    for f in DISK_ZOO:
        a = _disk_ball(rng, 2, 0.5)
        b = _disk_ball(rng, 3, 0.7)
        combined = amplify(f, np.block([[a, np.zeros((2, 3))], [np.zeros((3, 2)), b]]))
        expected = np.block([[amplify(f, a), np.zeros((2, 3))], [np.zeros((3, 2)), amplify(f, b)]])
        assert np.array_equal(combined, expected)


def test_amplify_space_direct_sum_exact():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    x = OpSpaceMatrix(MIN2, 0.2 * g)
    padded_entries = np.zeros((3, 3, 2), dtype=complex)
    padded_entries[:2, :2] = x.entries
    padded = OpSpaceMatrix(MIN2, padded_entries)
    out = amplify(GEOM_PHI, padded)
    assert np.array_equal(out[:2, :2], amplify(GEOM_PHI, x))
    assert np.all(out[2:, :] == 0) and np.all(out[:, 2:] == 0)


# sha256 of F and F′ of one tree that mixes every node kind over a space,
# on a seeded (5, 3, 3, d) stack, as the space evaluator wrote them before
# disk and space points shared one evaluator.
ONE_EVALUATOR_DIGESTS = {
    "mk2": (
        "2c854d8af9c1eb6e7bf0d818c642faba4b7e35321a4ccdba5d310e922677d437",
        "77f02b929c6c189b3c9029946cba0355eae1e41dff7e82e17a2ac23ee52dd408",
    ),
    "row3": (
        "a0f37098986e474203282976bf0f0734fe6d350911bb6100f2f3ad28e5d19e96",
        "6127a176ca873032833ebcad521ebcffd3bbfeb5f201cc1ea963d6ab256a3248",
    ),
}


@pytest.mark.parametrize("name", ONE_EVALUATOR_DIGESTS)
def test_one_evaluator_keeps_the_bits_of_every_node_over_a_space(name):
    space = {"mk2": opspace.space_mk(2), "row3": opspace.space_row(3)}[name]
    phi = np.array([0.25, -0.125j, 0.0625 + 0.125j, -0.1875][: space.dim])
    psi = np.array([0.125j, 0.25, -0.0625, 0.125 - 0.0625j][: space.dim])
    f = Sum(
        Scale(0.5 - 0.25j, Product(Composite(BLASCHKE, space, phi, 0.6), GeometricPhi(space, psi, 0.6))),
        Composite(Sum(SQUARE, GEOMETRIC), space, psi, 0.6),
    )
    stack = 0.4 * matcore.gaussian(np.random.default_rng(32), (5, 3, 3, space.dim))
    value, derivative = holofun._eval_array(f, stack)
    assert value.shape == (5, 3, 3) and derivative.shape == stack.shape
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (value, derivative))
    assert digests == ONE_EVALUATOR_DIGESTS[name]
    alone, none = holofun._eval_array(f, stack, False)
    assert none is None and alone.tobytes() == value.tobytes()


def test_one_evaluator_rejects_a_node_of_no_known_kind():
    with pytest.raises(InvalidInputError, match="not a function of a known kind"):
        holofun._eval_array(object(), np.zeros((1, 1), dtype=complex))


# Functionals whose norm on min-ℓ∞², |φ|₁, is 5 and about 1.01: each states
# 0.5, and each is rejected where it is built.
OVERSIZED = [[5.0, 0.0], [-0.2 - 0.7j, 0.2 + 0.2j]]


@pytest.mark.parametrize("phi", OVERSIZED, ids=["5", "1.01"])
def test_functional_of_norm_one_or_more_is_rejected(phi):
    with pytest.raises(ConfigurationError, match="not below 1"):
        GeometricPhi(MIN2, phi, 0.5)
    with pytest.raises(ConfigurationError, match="not below 1"):
        Composite(IDENTITY, MIN2, phi, 0.5)


def test_certified_norm_is_the_larger_of_stated_and_computed():
    computed = closed_form_dual_norm(MIN2, PHI)  # 0.4 + 0.2 rounds to 0.6000000000000001
    assert GeometricPhi(MIN2, PHI, 0.6).certified_norm == computed > 0.6
    assert GeometricPhi(MIN2, PHI, 0.7).certified_norm == 0.7
    assert Composite(SQUARE, MIN2, PHI, 0.0).certified_norm == computed


def test_composite_requires_certification():
    with pytest.raises(ConfigurationError):
        Composite(SQUARE, MIN2, PHI, None)
    with pytest.raises(ConfigurationError):
        Composite(SQUARE, MIN2, PHI, 1.0)


def test_taylor_power_series_exact_copy():
    # The coefficients are exact; the tail is only the rounding allowance.
    tc = taylor_coefficients(PowerSeries([0.0, 1.0]), 5)
    assert np.array_equal(tc.coeffs, np.array([0, 1, 0, 0, 0], dtype=complex))
    assert 0.0 <= tc.tail_bound < 1e-14
    assert np.sum(np.abs(tc.coeffs)) + tc.tail_bound >= 1.0


def test_taylor_geometric_series():
    tc = taylor_coefficients(GEOMETRIC, 20)
    expected = 0.5 ** np.arange(20)
    assert np.max(np.abs(tc.coeffs - expected)) < 1e-9
    true_tail = 0.5**20 / (1 - 0.5)
    assert tc.tail_bound is not None and tc.tail_bound >= true_tail


def test_taylor_blaschke_first_coefficient():
    # d/dz [z(z-0.5)/(1-0.5z)] at 0 equals -0.5.
    tc = taylor_coefficients(BLASCHKE, 4)
    assert abs(tc.coeffs[0] - (-0.5)) < 1e-9


def test_taylor_blaschke_zero_near_circle_is_exact():
    # z(z − a)/(1 − a·z) = −a·z + Σ_{n>=2} (1 − a²)·a^(n−2)·z^n.
    a = 0.999
    tc = taylor_coefficients(Blaschke(1.0, 1, [a]), 256)
    n = np.arange(2, 257)
    closed_form = np.concatenate([[-a], (1.0 - a * a) * a ** (n - 2)])
    assert np.max(np.abs(tc.coeffs - closed_form)) < 1e-12


def test_taylor_product_is_cauchy_convolution():
    f = PowerSeries([0.3, -0.2, 0.1j])
    g = GEOMETRIC
    k = 12
    cf = np.concatenate([[0.0], taylor_coefficients(f, k).coeffs])
    cg = np.concatenate([[0.0], taylor_coefficients(g, k).coeffs])
    conv = np.convolve(cf, cg)[1 : k + 1]
    tc = taylor_coefficients(Product(f, g), k)
    assert np.max(np.abs(tc.coeffs - conv)) < 1e-8


def test_taylor_tail_unknown_at_unit_radius():
    # Every disk function has a certified tail; here the true tail is
    # Σ_{n>8} 0.5^(n-2) = 0.5^6.
    f = Product(PowerSeries([1.0]), GEOMETRIC)
    tc = taylor_coefficients(f, 8)
    assert tc.tail_bound >= 0.5**6
    expected = np.concatenate([[0.0], 0.5 ** np.arange(7)])
    assert np.max(np.abs(tc.coeffs - expected)) < 1e-9


@pytest.mark.parametrize("truncation", [2.7, True, "3", None, 0, 2.0**70])
def test_taylor_rejects_a_truncation_that_is_not_an_integer_in_range(truncation):
    with pytest.raises(InvalidInputError):
        taylor_coefficients(GEOMETRIC, truncation)
    exact = taylor_coefficients(GEOMETRIC, 3).coeffs
    assert taylor_coefficients(GEOMETRIC, 3.0).coeffs.tobytes() == exact.tobytes()


def test_taylor_rejects_space_domain():
    with pytest.raises(InvalidInputError):
        taylor_coefficients(GEOM_PHI, 4)


def test_scale_nodes_collapse():
    s = Scale(2.0, Scale(3.0, IDENTITY))
    assert s.c == 6.0
    assert isinstance(s.inner, PowerSeries)


def test_domain_space_is_an_attribute_not_a_field():
    # Set at construction, so constructors, repr and fields() leave it out.
    pair = Product(GEOM_PHI, COMPOSITE)
    over_space = [GEOM_PHI, COMPOSITE, pair, Sum(COMPOSITE, GEOM_PHI), Scale(2.0, pair)]
    for f in DISK_ZOO + over_space:
        assert f.domain_space is (MIN2 if f in over_space else None)
        assert "domain_space" not in [field.name for field in fields(f)] and "domain_space" not in repr(f)
    assert [field.name for field in fields(Product)] == [field.name for field in fields(Sum)] == ["left", "right"]


def test_blaschke_zero_order_is_capped_at_the_longest_truncation():
    # Past order 2048 every Taylor coefficient of z^m·B lies beyond the
    # longest truncation, and the exact rational form builds m + 1 Fractions.
    assert Blaschke(1.0, 2048, [0.5]).m == 2048
    with pytest.raises(InvalidInputError, match="at most 2048, got 2049"):
        Blaschke(1.0, 2049, [0.5])


def test_variant_validation():
    with pytest.raises(InvalidInputError):
        Blaschke(2.0, 1, [])
    with pytest.raises(InvalidInputError):
        Blaschke(1.0, 0, [])
    with pytest.raises(InvalidInputError):
        Blaschke(1.0, 1, [1.0])
    with pytest.raises(InvalidInputError):
        MoebiusQuotient(IDENTITY, 1.0)
    # Non-finite and bool parameters, each of which once constructed.
    with pytest.raises(InvalidInputError):
        MoebiusQuotient(IDENTITY, np.nan)
    with pytest.raises(InvalidInputError):
        Blaschke(np.nan, 1, [])
    with pytest.raises(InvalidInputError):
        Blaschke(1.0, 1, [np.nan])
    with pytest.raises(InvalidInputError):
        Blaschke(1.0, True, [])
    with pytest.raises(InvalidInputError):
        MoebiusQuotient(GEOM_PHI, 0.5)
    with pytest.raises(InvalidInputError):
        Product(IDENTITY, GEOM_PHI)
