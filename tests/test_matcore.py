"""Unit and property tests for the dense linear algebra layer."""

import mpmath
import numpy as np
import pytest

from cbnorm_lab import matcore, opspace
from cbnorm_lab.errors import InvalidInputError


def power_iteration_sigma_max(a, iters=800):
    """Independent oracle: power iteration on A*A."""
    b = np.asarray(a).conj().T @ np.asarray(a)
    v = np.linspace(1.0, 2.0, b.shape[0]) + 0.5j
    v = v / np.linalg.norm(v)
    for _ in range(iters):
        w = b @ v
        v = w / np.linalg.norm(w)
    return float(np.sqrt(np.real(np.vdot(v, b @ v))))


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_operator_norm_identity():
    assert matcore.operator_norm(np.eye(2)) == 1.0


def test_operator_norm_single_singular_value():
    assert matcore.operator_norm([[0, 2], [0, 0]]) == 2.0


def test_operator_norm_matches_power_iteration_oracle():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 5, 5)
    assert abs(matcore.operator_norm(a) - power_iteration_sigma_max(a)) < 1e-8


def test_operator_norm_large_matrix_path():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 80, 80)
    expected = float(np.linalg.svd(a, compute_uv=False)[0])
    assert abs(matcore.operator_norm(a) - expected) <= 1e-9 * expected


def test_operator_norm_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        matcore.operator_norm([[np.nan, 0], [0, 1]])
    with pytest.raises(InvalidInputError):
        matcore.operator_norm([[np.inf, 0], [0, 1]])


def test_operator_norm_rejects_wrong_ndim():
    for wrong in (np.ones(3), 1.0, np.ones((2, 2, 2))):
        with pytest.raises(InvalidInputError, match="ndim"):
            matcore.operator_norm(wrong)


def test_operator_norm_empty_matrix():
    assert matcore.operator_norm(np.zeros((0, 3))) == 0.0
    assert matcore.operator_norm(np.zeros((4, 0))) == 0.0


@pytest.mark.parametrize("k", [1, 34, 0])
def test_operator_norms_equal_operator_norm_bitwise(k):
    rng = np.random.default_rng(20 + k)
    stack = random_complex(rng, 3 * k, 3).reshape(k, 3, 3)
    norms = matcore.operator_norms(stack)
    assert norms.shape == (k,)
    for matrix, norm in zip(stack, norms):
        assert norm.hex() == matcore.operator_norm(matrix).hex()


def _moduli(rng, k):
    """k complex numbers with moduli spread over 1e-135…1e135, among them
    purely real and purely imaginary ones with zero parts of either sign."""
    z = 10.0 ** rng.uniform(-135.0, 135.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
    x, y = z.real, z.imag
    z[:8] = [complex(x[0], 0.0), complex(x[1], -0.0), complex(-x[2], 0.0), complex(0.0, y[3]),
             complex(-0.0, y[4]), complex(-0.0, -y[5]), 1.0, -1j]
    return z


# Zeros, a subnormal, extreme magnitudes and the largest parts a finite
# modulus allows.
_EDGES = [0.0, -0.0j, 5e-324, 1e-300, 1e300, 1e300j, complex(1e-300, -1e-300), complex(1e308, 1e308)]


def _edge_stack(rng, k):
    stack = _moduli(rng, k)
    stack[rng.choice(k, len(_EDGES), replace=False)] = _EDGES
    return stack.reshape(-1, 1, 1)


def test_one_by_one_stacks_are_moduli_and_reach_no_svd(monkeypatch):
    rng = np.random.default_rng(29)
    stack = _edge_stack(rng, 4000)
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("a 1×1 stack reached the SVD"))
    assert matcore.operator_norms(stack).tobytes() == np.abs(stack[:, 0, 0]).tobytes()
    for matrix in stack[:400]:
        assert matcore.operator_norm(matrix) == matcore.operator_norms(matrix[None])[0]
    assert matcore.operator_norms(np.zeros((0, 1, 1))).shape == (0,)


@pytest.mark.parametrize("k", range(1, 18))
def test_one_by_one_rows_keep_the_bits_they_have_alone(k):
    rng = np.random.default_rng(31 + k)
    plain = _moduli(rng, 64)[-k:]
    mixed = rng.permutation(np.concatenate([_EDGES, plain]))
    for stack in (plain, mixed[:k], mixed[-k:]):
        stack = stack.reshape(-1, 1, 1)
        norms = matcore.operator_norms(stack)
        for matrix, norm in zip(stack, norms):
            assert matcore.operator_norms(matrix[None]).tobytes() == norm.tobytes()
            assert matcore.operator_norm(matrix).hex() == norm.hex()


def test_one_by_one_norms_are_within_two_ulps_of_the_modulus():
    rng = np.random.default_rng(37)
    z = 10.0 ** rng.uniform(-300.0, 300.0, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
    z = np.concatenate([_moduli(rng, 2000), z, _EDGES])
    norms = matcore.operator_norms(z.reshape(-1, 1, 1))
    with mpmath.workdps(40):
        for entry, norm in zip(z, norms):
            exact = mpmath.hypot(mpmath.mpf(entry.real), mpmath.mpf(entry.imag))
            assert abs(mpmath.mpf(norm) - exact) <= 2 * mpmath.mpf(np.spacing(float(exact))), entry


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_operator_norms_reject_non_finite_anywhere(bad):
    rng = np.random.default_rng(21)
    for index in [(0, 0, 0), (33, 2, 2), (17, 1, 0)]:
        stack = random_complex(rng, 3 * 34, 3).reshape(34, 3, 3)
        stack[index] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            matcore.operator_norms(stack)


def test_operator_norms_reject_wrong_ndim():
    for wrong in (np.ones((2, 2)), np.ones((2, 2, 2, 2))):
        with pytest.raises(InvalidInputError, match="ndim"):
            matcore.operator_norms(wrong)


def test_top_singular_pair_gives_the_norm_and_its_differential():
    rng = np.random.default_rng(19)
    a, da = random_complex(rng, 4, 3), random_complex(rng, 4, 3)
    sigma, u, v = matcore.top_singular_pair(a)
    assert abs(sigma - matcore.operator_norm(a)) <= 1e-12 * sigma
    assert np.allclose(a @ v, sigma * u, atol=1e-12)
    h = 1e-6
    central = (matcore.operator_norm(a + h * da) - matcore.operator_norm(a - h * da)) / (2 * h)
    assert abs(central - np.real(u.conj() @ da @ v)) <= 1e-8


def test_schur_product_all_ones():
    ones = np.ones((2, 2))
    out = matcore.schur_product(ones, ones)
    assert np.array_equal(out, ones.astype(complex))
    assert matcore.operator_norm(out) == 2.0 <= 4.0


def test_schur_product_ones_is_identity():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 4, 4)
    assert np.array_equal(matcore.schur_product(a, np.ones((4, 4))), a)


def test_schur_product_shape_mismatch():
    with pytest.raises(InvalidInputError):
        matcore.schur_product(np.ones((2, 2)), np.ones((3, 3)))


def test_schur_submultiplicative_random():
    rng = np.random.default_rng(13)
    for size in range(2, 9):
        for _ in range(150):
            a = random_complex(rng, size, size)
            b = random_complex(rng, size, size)
            bound = matcore.operator_norm(a) * matcore.operator_norm(b)
            assert matcore.operator_norm(matcore.schur_product(a, b)) <= bound + 1e-10


def test_compression_norm_inequality():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        alpha = random_complex(rng, n, m)
        a = random_complex(rng, m, m)
        beta = random_complex(rng, m, n)
        bound = (
            matcore.operator_norm(alpha) * matcore.operator_norm(a) * matcore.operator_norm(beta)
        )
        assert matcore.operator_norm(alpha @ a @ beta) <= bound + 1e-10


# `gaussian` draws every complex-Gaussian array: the search starts, and in
# `opspace._random_matrix_ball` the Schwarz trials, a disk trial as the one
# entry of a sample over the scalar space.


def _ball(rng, m, radius):
    return opspace._random_matrix_ball(rng, opspace.space_scalar(), m, radius)[..., 0]


def test_gaussian_draws_what_two_draws_did():
    for shape in [(1,), (3, 3), (2, 2, 5)]:
        two, one = np.random.default_rng(17), np.random.default_rng(17)
        expected = two.standard_normal(shape) + 1j * two.standard_normal(shape)
        assert matcore.gaussian(one, shape).tobytes() == expected.tobytes()
        # The generator is left where the two draws left it.
        assert one.standard_normal() == two.standard_normal()


def test_sample_ball_norm_exact():
    a = _ball(np.random.default_rng(123), 4, 0.5)
    assert abs(matcore.operator_norm(a) - 0.5) < 1e-12


def test_sample_ball_deterministic():
    draw = lambda seed: _ball(matcore.derive_rng(seed), 3, 0.7)
    assert np.array_equal(draw(99), draw(99))
    assert not np.array_equal(draw(99), draw(100))


def test_sample_ball_scalar_modulus():
    a = _ball(np.random.default_rng(4), 1, 0.25)
    assert a.shape == (1, 1)
    assert abs(abs(a[0, 0]) - 0.25) < 1e-12


def test_sample_ball_rejects_bad_seed():
    with pytest.raises(InvalidInputError):
        matcore.derive_rng(-1)
    with pytest.raises(InvalidInputError):
        matcore.derive_rng(2**64)
