"""Tests for concrete operator spaces and their matrix-level norms."""

import hashlib

import numpy as np
import pytest

from cbnorm_lab import matcore, opspace
from cbnorm_lab.errors import InvalidInputError
from cbnorm_lab.opspace import (
    ConcreteOperatorSpace,
    _extension_norm,
    OpSpaceMatrix,
    block_matrix,
    builder_space,
    closed_form_dual_norm,
    compress,
    direct_sum_matrices,
    matrix_norm,
    norm_gradient,
    norming_element,
    realize,
    sample_matrix_ball,
    space_column,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)

SPACES = [space_scalar(), space_mk(2), space_row(2), space_column(2), space_min_linf(2)]


def random_entries(rng, space, level):
    return rng.standard_normal((level, level, space.dim)) + 1j * rng.standard_normal(
        (level, level, space.dim)
    )


def test_builder_shapes():
    assert space_scalar().dim == 1 and space_scalar().ambient == 1
    assert space_mk(3).dim == 9 and space_mk(3).ambient == 3
    assert space_row(4).dim == 4 and space_row(4).ambient == 4
    assert space_column(4).dim == 4 and space_column(4).ambient == 4
    assert space_min_linf(5).dim == 5 and space_min_linf(5).ambient == 5
    # An integral float is a size, as the descriptor reader takes `param` 2.0.
    row = space_row(2.0)
    assert row.param == 2 and type(row.param) is int
    assert row.basis.tobytes() == space_row(2).basis.tobytes()


@pytest.mark.parametrize(
    "build, args",
    [
        (space_row, (2.5,)),
        (space_row, (True,)),
        (space_row, ("x",)),
        (space_column, (0,)),
        (space_mk, (None,)),
        (space_min_linf, (2.5,)),
        (builder_space, ("bogus", 2)),
        (builder_space, (["row"], 2)),
        (builder_space, ("scalar", 2)),
    ],
)
def test_builders_report_a_bad_kind_or_size_as_invalid_input(build, args):
    with pytest.raises(InvalidInputError):
        build(*args)


def test_dependent_basis_rejected():
    basis = np.zeros((2, 2, 2), dtype=complex)
    basis[0, 0, 0] = 1.0
    basis[1, 0, 0] = 1.0 + 1e-12
    with pytest.raises(InvalidInputError):
        ConcreteOperatorSpace(basis)


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_builder_spaces_skip_the_independence_svd(monkeypatch):
    # Distinct matrix units are independent by construction.
    calls = _count_svds(monkeypatch)
    mk = space_mk(32)
    others = [space_scalar(), space_row(3), space_column(3), space_min_linf(3)]
    assert calls == []
    assert mk.basis.shape == (1024, 32, 32) and mk.basis.dtype == np.complex128
    assert np.array_equal(mk.basis.reshape(1024, -1), np.eye(1024))
    assert [s.dim for s in others] == [1, 3, 3, 3]


def test_custom_basis_keeps_the_independence_svd(monkeypatch):
    row = space_row(3)
    calls = _count_svds(monkeypatch)
    assert ConcreteOperatorSpace(row.basis).dim == 3 and calls == [(3, 9)]
    with pytest.raises(InvalidInputError, match="not linearly independent"):
        ConcreteOperatorSpace(np.concatenate([row.basis, row.basis[:1] + row.basis[1:2]]))


def test_realize_scalar_space_is_plain_matrix():
    s = space_scalar()
    rng = np.random.default_rng(0)
    entries = random_entries(rng, s, 3)
    assert np.array_equal(realize(OpSpaceMatrix(s, entries)), entries[:, :, 0])


def test_realize_level1_is_basis_combination():
    s = space_mk(2)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = OpSpaceMatrix(s, c.reshape(1, 1, -1))
    expected = sum(c[k] * s.basis[k] for k in range(4))
    assert np.allclose(realize(x), expected, atol=0)


def test_realize_matches_hand_indexed_blocks():
    s = space_mk(2)
    rng = np.random.default_rng(2)
    entries = random_entries(rng, s, 2)
    big = realize(OpSpaceMatrix(s, entries))
    assert big.shape == (4, 4)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    acc = 0.0 + 0.0j
                    for k in range(4):
                        acc += entries[i, j, k] * s.basis[k, a, b]
                    assert big[2 * i + a, 2 * j + b] == acc


_CUSTOM = ConcreteOperatorSpace(
    np.random.default_rng(12).standard_normal((3, 2, 2)) + 1j * np.random.default_rng(13).standard_normal((3, 2, 2))
)


@pytest.mark.parametrize(
    "space",
    [space_scalar(), space_mk(2), space_row(3), space_column(2), space_min_linf(3), _CUSTOM],
    ids=lambda s: s.kind,
)
def test_norm_gradient_is_the_derivative_of_the_realized_norm(space):
    # Re Σ G·dE against the central difference of ‖block_matrix(E + t·dE)‖
    # along a random direction, where σ₁ is simple.
    rng = np.random.default_rng(9)
    norm = lambda e: matcore.operator_norm(block_matrix(e, space.basis))
    for level in (1, 2, 3):
        entries, de = random_entries(rng, space, level), random_entries(rng, space, level)
        realized = block_matrix(entries, space.basis)
        sigma = np.linalg.svd(realized, compute_uv=False)
        assert sigma.size == 1 or sigma[0] - sigma[1] > 1e-2 * sigma[0]
        grid = norm_gradient(realized, space.basis)
        assert grid.shape == entries.shape
        t = 1e-6
        central = (norm(entries + t * de) - norm(entries - t * de)) / (2 * t)
        assert np.isclose(np.sum(grid * de).real, central, rtol=1e-6, atol=1e-9)


def test_mk_norm_matches_reshuffled_operator_norm():
    s = space_mk(2)
    rng = np.random.default_rng(3)
    for level in (1, 2, 3):
        entries = random_entries(rng, s, level)
        direct = np.zeros((2 * level, 2 * level), dtype=complex)
        for p in range(level):
            for q in range(level):
                for a in range(2):
                    for b in range(2):
                        direct[2 * p + a, 2 * q + b] = entries[p, q, 2 * a + b]
        assert abs(matrix_norm(OpSpaceMatrix(s, entries)) - matcore.operator_norm(direct)) < 1e-12


def test_row_element_norm_is_euclidean():
    s = space_row(2)
    assert abs(matrix_norm(OpSpaceMatrix(s, np.array([1.0, 1.0]).reshape(1, 1, -1))) - np.sqrt(2)) < 1e-12
    rng = np.random.default_rng(4)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert abs(matrix_norm(OpSpaceMatrix(s, c.reshape(1, 1, -1))) - np.linalg.norm(c)) < 1e-12


def test_min_linf_element_norm_is_max_modulus():
    s = space_min_linf(2)
    c = np.array([0.3 - 0.1j, -0.9 + 0.2j])
    assert abs(matrix_norm(OpSpaceMatrix(s, c.reshape(1, 1, -1))) - np.max(np.abs(c))) < 1e-12


def test_scalar_space_matrix_norm_is_operator_norm():
    s = space_scalar()
    rng = np.random.default_rng(5)
    entries = random_entries(rng, s, 4)
    assert matrix_norm(OpSpaceMatrix(s, entries)) == matcore.operator_norm(entries[:, :, 0])


def test_compress_matches_realized_compression():
    rng = np.random.default_rng(6)
    for space in SPACES:
        m, l = 3, 2
        x = OpSpaceMatrix(space, random_entries(rng, space, m))
        alpha = rng.standard_normal((l, m)) + 1j * rng.standard_normal((l, m))
        beta = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
        eye = np.eye(space.ambient)
        expected = np.kron(alpha, eye) @ realize(x) @ np.kron(beta, eye)
        assert np.allclose(realize(compress(alpha, x, beta)), expected, atol=1e-13)


def test_combination_of_one_pair_has_the_bits_of_compress():
    rng = np.random.default_rng(17)
    for space in SPACES:
        for l, m in [(1, 1), (2, 3), (3, 2)]:
            x = OpSpaceMatrix(space, random_entries(rng, space, m))
            alpha = rng.standard_normal((l, m)) + 1j * rng.standard_normal((l, m))
            beta = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
            for c in (1.0, 0.5 - 2.0j):
                out = opspace.combination([(c, alpha, x.entries, beta)], (l, l, space.dim))
                assert out.tobytes() == (c * compress(alpha, x, beta).entries).tobytes()


def test_combination_of_stacks_has_the_bits_of_the_explicit_einsum():
    # Two generators at levels 1 and 3 and a stack of 5 level-2 compressions,
    # as `mconvex._sampled_norms` takes them.
    rng = np.random.default_rng(18)
    space, n, t = space_mk(2), 2, 5
    terms, expected = [], 0
    for k in (1, 3):
        x = random_entries(rng, space, k)
        alpha = rng.standard_normal((t, n, k)) + 1j * rng.standard_normal((t, n, k))
        beta = rng.standard_normal((t, k, n)) + 1j * rng.standard_normal((t, k, n))
        terms.append((1.0, alpha, x, beta))
        expected = expected + np.einsum("tpr,rsd,tsq->tpqd", alpha, x, beta)
    out = opspace.combination(terms, (t, n, n, space.dim))
    assert out.shape == (t, n, n, space.dim) and out.tobytes() == expected.tobytes()


def test_ruan_scaling_inequality():
    rng = np.random.default_rng(7)
    for space in SPACES:
        for _ in range(200):
            m = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            x = OpSpaceMatrix(space, random_entries(rng, space, m))
            alpha = rng.standard_normal((l, m)) + 1j * rng.standard_normal((l, m))
            beta = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
            bound = (
                matcore.operator_norm(alpha) * matrix_norm(x) * matcore.operator_norm(beta)
            )
            assert matrix_norm(compress(alpha, x, beta)) <= bound + 1e-10


def test_ruan_direct_sum_is_max():
    rng = np.random.default_rng(8)
    for space in SPACES:
        for _ in range(200):
            x = OpSpaceMatrix(space, random_entries(rng, space, int(rng.integers(1, 4))))
            y = OpSpaceMatrix(space, random_entries(rng, space, int(rng.integers(1, 4))))
            expected = max(matrix_norm(x), matrix_norm(y))
            assert abs(matrix_norm(direct_sum_matrices(x, y)) - expected) < 1e-12


def test_sample_matrix_ball_norm_and_determinism():
    s = space_row(3)
    x = sample_matrix_ball(s, 2, 0.8, 17)
    assert abs(matrix_norm(x) - 0.8) < 1e-12
    y = sample_matrix_ball(s, 2, 0.8, 17)
    assert np.array_equal(x.entries, y.entries)


def test_sample_matrix_ball_keeps_its_bits():
    # sha256 of the entries of one sample per space, level 1-4 and seed
    # 0-19, as drawn one grid per `matcore.gaussian` call before the
    # sampler took a stack of radii.
    digest = hashlib.sha256()
    for space in SPACES:
        for level in range(1, 5):
            for seed in range(20):
                digest.update(sample_matrix_ball(space, level, 0.75, seed).entries.tobytes())
    assert digest.hexdigest() == "9507e4d3e0eec342de0ab7a7d2e878c693a3efbc4e871674c133905a9a263fd2"


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}{s.param}")
def test_random_matrix_ball_stack_rows_are_one_point_draws(space):
    # Row i of a stack of k radii holds the i-th of k one-point draws from
    # the same stream, to the bit.
    radii = np.array([0.2, 0.5, 0.9, 0.7])
    for level in (1, 3):
        stack = opspace._random_matrix_ball(matcore.derive_rng(6, level), space, level, radii)
        rng = matcore.derive_rng(6, level)
        rows = [opspace._random_matrix_ball(rng, space, level, float(r)) for r in radii]
        assert stack.shape == (4, level, level, space.dim)
        assert stack.tobytes() == np.stack(rows).tobytes()


@pytest.mark.parametrize("radius", [0.0, 1.0, -0.5, 1.5])
def test_sample_matrix_ball_rejects_bad_radius(radius):
    with pytest.raises(InvalidInputError, match="radius"):
        sample_matrix_ball(space_row(2), 2, radius, 1)


def test_closed_form_dual_norms():
    assert closed_form_dual_norm(space_scalar(), [0.5j]) == 0.5
    assert closed_form_dual_norm(space_min_linf(2), [1.0, -1.0]) == 2.0
    assert abs(closed_form_dual_norm(space_row(2), [3.0, 4.0]) - 5.0) < 1e-12
    # Trace norm of [[1, 0], [0, 1]] is 2.
    assert abs(closed_form_dual_norm(space_mk(2), [1.0, 0.0, 0.0, 1.0]) - 2.0) < 1e-12


def test_tiny_functional_dual_norm_on_row_and_column_does_not_underflow():
    # Squares of 1e-170 underflow to 0; ‖φ‖₂ is taken of φ scaled by a
    # power of two, which leaves a φ in the normal range its bits.
    for space in (space_row(2), space_column(2)):
        norm = closed_form_dual_norm(space, np.array([3e-170, 4e-170j]))
        assert norm == pytest.approx(5e-170, rel=1e-15, abs=0.0)
        phi = np.array([0.3 - 0.1j, 0.4j])
        assert closed_form_dual_norm(space, phi) == float(np.linalg.norm(phi))


def test_norming_element_of_a_tiny_functional_has_unit_norm():
    # Squares of 1e-170 underflow to 0, and conj(φ_k)/|φ_k| of a subnormal
    # φ_k overflows; the norming element stays a unit point that norms φ.
    cases = [
        (space_row(2), [3e-170, 4e-170j], 5e-170),
        (space_min_linf(2), [6 * 5e-324 + 5e-324j, 0.5], 0.5),
        (space_mk(2), [1e-310, 0.0, 2e-310j, 0.0], 5**0.5 * 1e-310),
    ]
    for space, phi, norm in cases:
        phi = np.array(phi)
        e = norming_element(space, phi)
        assert abs(matrix_norm(OpSpaceMatrix(space, e.reshape(1, 1, -1))) - 1.0) <= 4 * 2.0**-52
        assert phi @ e == pytest.approx(norm, rel=1e-12)
    assert norming_element(ConcreteOperatorSpace(space_row(2).basis), np.array([0.3, 0.4j])) is None


@pytest.mark.parametrize("space", [space_scalar(), space_mk(2), space_mk(3), space_row(3), space_column(2), space_min_linf(3)], ids=lambda s: f"{s.kind}{s.param}")
def test_norming_elements_of_a_stack_norm_each_functional(space):
    # Row t of a stack's norming elements norms functional t, and a zero
    # row gets the first basis element.  On the scalar and min-ℓ∞ spaces
    # each row has the bits of its functional alone.  On M_k each row is
    # the polar factor of its functional's SVD (one stacked SVD, each matrix
    # on its own), not scaled by a second SVD as a single functional's is:
    # its norm is 1 within 8 ulps.
    rng = np.random.default_rng(space.dim)
    phis = rng.standard_normal((5, space.dim)) + 1j * rng.standard_normal((5, space.dim))
    phis[2] = 0.0
    stack = norming_element(space, phis)
    assert stack.shape == phis.shape
    for phi, e in zip(phis, stack):
        alone = norming_element(space, phi)
        if space.kind in ("scalar", "min_linf"):
            assert e.tobytes() == alone.tobytes()
        if np.any(phi):
            assert abs(matrix_norm(OpSpaceMatrix(space, e.reshape(1, 1, -1))) - 1.0) <= 8 * 2.0**-52
            norm = closed_form_dual_norm(space, phi)
            assert abs(phi @ e - norm) <= 1e-15 * norm
    assert stack[2].tobytes() == np.eye(1, space.dim, dtype=complex)[0].tobytes()
    assert norming_element(space, phis[[0, 1]]).tobytes() == stack[[0, 1]].tobytes()


def test_only_the_builders_set_a_kind():
    # A kind promises its closed-form dual norm and descriptor, so only
    # `builder_space` sets one; any given basis is a custom space.
    row = space_row(2)
    with pytest.raises(TypeError):
        ConcreteOperatorSpace(row.basis, kind="row")
    with pytest.raises(TypeError):
        ConcreteOperatorSpace(row.basis, param=2)
    assert (row.kind, row.param) == ("row", 2)
    custom, phi = ConcreteOperatorSpace(row.basis), np.array([0.3, 0.4j])
    assert (custom.kind, custom.param) == ("custom", None)
    assert closed_form_dual_norm(custom, phi) == _extension_norm(custom, phi)


def test_element_validation():
    s = space_row(2)
    with pytest.raises(InvalidInputError):
        OpSpaceMatrix(s, np.array([1.0]).reshape(1, 1, -1))
    with pytest.raises(InvalidInputError):
        OpSpaceMatrix(s, np.ones((2, 3, 2), dtype=complex))
    with pytest.raises(InvalidInputError):
        OpSpaceMatrix(s, np.full((2, 2, 2), np.nan, dtype=complex))


_REFUSED = {
    "compression shapes": (
        lambda: opspace.compression_pair(np.eye(2), np.eye(2), 1, 2),
        "compression shapes must be (1, 2) and (2, 1), got (2, 2) and (2, 2)",
    ),
    "a direct sum across spaces": (
        lambda: direct_sum_matrices(
            OpSpaceMatrix(space_mk(2), np.zeros((1, 1, 4))), OpSpaceMatrix(space_row(4), np.zeros((1, 1, 4)))
        ),
        "direct sum needs matrices over the same space",
    ),
    "a dual norm of the wrong length": (
        lambda: closed_form_dual_norm(space_min_linf(2), np.ones(3)),
        "functional must have 2 coefficients",
    ),
    "a basis of non-square matrices": (
        lambda: ConcreteOperatorSpace(np.zeros((2, 2, 3))),
        "basis must be a (d, N, N) array of square matrices",
    ),
    "a basis with non-finite entries": (
        lambda: ConcreteOperatorSpace(np.full((1, 2, 2), np.inf)),
        "basis entries must be finite",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_opspace_refuses_with_its_message(case):
    make, message = _REFUSED[case]
    with pytest.raises(InvalidInputError) as raised:
        make()
    assert str(raised.value) == message
