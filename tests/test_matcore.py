"""Unit and property tests for the dense linear algebra layer."""

import numpy as np
import pytest

from cbnorm_lab import matcore
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


def test_direct_sum_diagonal():
    out = matcore.direct_sum([[1.0]], [[2.0]])
    assert np.array_equal(out, np.diag([1.0 + 0j, 2.0 + 0j]))
    assert matcore.operator_norm(out) == 2.0


def test_direct_sum_zero_padding_preserves_norm():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 3, 3)
    padded = matcore.direct_sum(a, np.zeros((2, 2)))
    assert abs(matcore.operator_norm(padded) - matcore.operator_norm(a)) < 1e-12


def test_direct_sum_norm_is_max():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = random_complex(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        b = random_complex(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        expected = max(matcore.operator_norm(a), matcore.operator_norm(b))
        assert abs(matcore.operator_norm(matcore.direct_sum(a, b)) - expected) < 1e-12


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


def test_sample_ball_norm_exact():
    a = matcore.sample_ball(4, 0.5, 123)
    assert abs(matcore.operator_norm(a) - 0.5) < 1e-12


def test_sample_ball_deterministic():
    assert np.array_equal(matcore.sample_ball(3, 0.7, 99), matcore.sample_ball(3, 0.7, 99))
    assert not np.array_equal(matcore.sample_ball(3, 0.7, 99), matcore.sample_ball(3, 0.7, 100))


def test_sample_ball_scalar_modulus():
    a = matcore.sample_ball(1, 0.25, 4)
    assert a.shape == (1, 1)
    assert abs(abs(a[0, 0]) - 0.25) < 1e-12


@pytest.mark.parametrize("radius", [0.0, 1.0, -0.5, 1.5])
def test_sample_ball_rejects_bad_radius(radius):
    with pytest.raises(InvalidInputError):
        matcore.sample_ball(2, radius, 1)


def test_sample_ball_rejects_bad_seed():
    with pytest.raises(InvalidInputError):
        matcore.sample_ball(2, 0.5, -1)
    with pytest.raises(InvalidInputError):
        matcore.sample_ball(2, 0.5, 2**64)


def test_project_ball_fixes_interior_exactly():
    rng = np.random.default_rng(21)
    a = random_complex(rng, 3, 3)
    a = a * (0.3 / matcore.operator_norm(a))
    assert np.array_equal(matcore.project_ball(a, 1.0), a)


def test_project_ball_clips_singular_values():
    out = matcore.project_ball(np.diag([2.0, 0.5]), 1.0)
    assert np.allclose(out, np.diag([1.0, 0.5]), atol=1e-12)


def test_project_ball_inside_ball():
    rng = np.random.default_rng(23)
    for _ in range(300):
        a = random_complex(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7))) * 3.0
        assert matcore.operator_norm(matcore.project_ball(a, 1.0)) <= 1.0 + 1e-12


def test_project_ball_idempotent_and_nonexpansive():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        a = random_complex(rng, n, n) * 2.0
        b = random_complex(rng, n, n) * 2.0
        pa = matcore.project_ball(a, 1.0)
        pb = matcore.project_ball(b, 1.0)
        assert matcore.operator_norm(matcore.project_ball(pa, 1.0) - pa) <= 1e-10
        assert (
            matcore.operator_norm(pa - pb)
            <= matcore.operator_norm(a - b) + 1e-10
        )


def test_project_ball_takes_singular_vectors_only_outside_the_ball(monkeypatch):
    with_vectors = []
    svd = np.linalg.svd

    def counting(a, *args, compute_uv=True, **kwargs):
        with_vectors.append(compute_uv)
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    matcore.project_ball(np.diag([0.5, 0.25]), 1.0)
    assert with_vectors == [False]
    matcore.project_ball(np.diag([2.0, 0.25]), 1.0)
    assert with_vectors == [False, False, True]


def test_project_ball_rejects_nonpositive_radius():
    with pytest.raises(InvalidInputError):
        matcore.project_ball(np.eye(2), 0.0)
