"""Tests for hull representations, the pairing, and separation certificates."""

import json
from pathlib import Path

import numpy as np
import pytest

from cbnorm_lab import descriptors, matcore, mconvex
from cbnorm_lab.errors import InvalidInputError, InvalidRepresentationError
from cbnorm_lab.mconvex import (
    HullReport,
    HullRepresentation,
    HullTerm,
    MatrixSet,
    SeparationCertificate,
    check_certificate,
    find_certificate,
    hull_element,
    hull_norm_check,
    identity_representation,
    pairing,
    set_norm,
)
from cbnorm_lab.opspace import (
    OpSpaceMatrix,
    matrix_norm,
    realize,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)
from hull_reference import reference_representation

SCALAR = space_scalar()
MK2 = space_mk(2)
MIN2 = space_min_linf(2)
ROW2 = space_row(2)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SPACES = {"scalar": SCALAR, "matrix2": MK2, "row2": ROW2, "min2": MIN2}


def scalar_point(value, level=1):
    entries = np.zeros((level, level, 1), dtype=complex)
    for i in range(level):
        entries[i, i, 0] = value
    return OpSpaceMatrix(SCALAR, entries)


def random_point(rng, space, level, scale=1.0):
    g = rng.standard_normal((level, level, space.dim)) + 1j * rng.standard_normal(
        (level, level, space.dim)
    )
    return OpSpaceMatrix(space, scale * g)


def test_hull_element_identity_representation_is_generator():
    rng = np.random.default_rng(0)
    k = MatrixSet(MK2, (random_point(rng, MK2, 2),))
    out = hull_element(k, identity_representation(k, 0))
    assert np.array_equal(out.entries, k.generators[0].entries)


def test_hull_element_injects_scalar_into_corner():
    k = MatrixSet(SCALAR, (scalar_point(1.0),))
    alpha = np.array([[1.0], [0.0]])
    beta = np.array([[1.0, 0.0]])
    rep = HullRepresentation((HullTerm(alpha, 0, beta),), target_level=2)
    out = hull_element(k, rep)
    expected = np.zeros((2, 2, 1), dtype=complex)
    expected[0, 0, 0] = 1.0
    assert np.array_equal(out.entries, expected)


def test_hull_element_two_terms_matches_block_arithmetic():
    rng = np.random.default_rng(1)
    gens = (random_point(rng, MK2, 1), random_point(rng, MK2, 2))
    k = MatrixSet(MK2, gens)
    rep = reference_representation(k, 2, rng)
    out = realize(hull_element(k, rep))
    eye = np.eye(MK2.ambient)
    expected = np.zeros_like(out)
    for term in rep.terms:
        gen = k.generators[term.index]
        expected = expected + np.kron(term.alpha, eye) @ realize(gen) @ np.kron(term.beta, eye)
    assert np.allclose(out, expected, atol=1e-13)


def test_representation_constraints_enforced():
    k = MatrixSet(SCALAR, (scalar_point(1.0),))
    big = np.array([[2.0]])
    rep = HullRepresentation((HullTerm(big, 0, big),), target_level=1)
    with pytest.raises(InvalidRepresentationError):
        hull_element(k, rep)


def test_random_representation_satisfies_constraints():
    # The normalized α, β stacks that `hull_norm_check` draws, 50 per level.
    rng = np.random.default_rng(2)
    gens = (random_point(rng, MIN2, 1), random_point(rng, MIN2, 3))
    k = MatrixSet(MIN2, gens)
    for level in (1, 2, 3):
        draws = rng.standard_normal((50, 4 * level * sum(g.level for g in gens)))
        alphas, betas = mconvex._normalize(*mconvex._split(k, level, draws))
        row = sum(a @ a.conj().swapaxes(-1, -2) for a in alphas)
        col = sum(b.conj().swapaxes(-1, -2) @ b for b in betas)
        assert np.all(matcore.operator_norms(row) <= 1.0 + 1e-10)
        assert np.all(matcore.operator_norms(col) <= 1.0 + 1e-10)


def test_hull_norm_check_scalar():
    k = MatrixSet(SCALAR, (scalar_point(0.7),))
    report = hull_norm_check(k, 200, 3)
    assert report.passed
    assert report.set_norm == 0.7
    assert report.worst_excess <= 1e-8


def test_hull_norm_check_two_generators():
    rng = np.random.default_rng(4)
    g1 = random_point(rng, MK2, 1)
    g1 = OpSpaceMatrix(MK2, g1.entries * (0.3 / matrix_norm(g1)))
    g2 = random_point(rng, MK2, 2)
    g2 = OpSpaceMatrix(MK2, g2.entries * (0.9 / matrix_norm(g2)))
    k = MatrixSet(MK2, (g1, g2))
    assert abs(set_norm(k) - 0.9) < 1e-12
    report = hull_norm_check(k, 300, 5)
    assert report.passed
    assert report.identity_attained


@pytest.mark.parametrize("trials", [matcore.MAX_BUDGET + 1, 1e300])
def test_hull_norm_check_refuses_trials_past_the_cap(trials):
    k = MatrixSet(SCALAR, (scalar_point(0.7),))
    with pytest.raises(InvalidInputError, match=f"trials must be at most {matcore.MAX_BUDGET}, got "):
        hull_norm_check(k, trials, 3)


def test_pairing_scalar_case():
    f = SeparationCertificate(SCALAR, np.array([[[2.0 + 1.0j]]]))
    x = scalar_point(0.5)
    assert pairing(f, x) == np.array([[(2.0 + 1.0j) * 0.5]])


def test_pairing_identity_grid_recovers_matrix():
    rng = np.random.default_rng(5)
    x = random_point(rng, SCALAR, 3)
    f = SeparationCertificate(SCALAR, np.array([[[1.0]]]))
    assert np.array_equal(pairing(f, x), x.entries[:, :, 0])


def test_pairing_matches_quadruple_loop():
    rng = np.random.default_rng(6)
    f = SeparationCertificate(
        MIN2, rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    )
    x = random_point(rng, MIN2, 2)
    out = pairing(f, x)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    expected = np.dot(f.grid[i, j], x.entries[k, l])
                    assert abs(out[2 * i + k, 2 * j + l] - expected) < 1e-13


def test_pairing_is_bilinear():
    rng = np.random.default_rng(7)
    f = SeparationCertificate(
        MIN2, rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    )
    x = random_point(rng, MIN2, 2)
    y = random_point(rng, MIN2, 2)
    a, b = 0.3 - 1.0j, 2.0 + 0.5j
    combined = OpSpaceMatrix(MIN2, a * x.entries + b * y.entries)
    lhs = pairing(f, combined)
    rhs = a * pairing(f, x) + b * pairing(f, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sampled_hull_pairings_bounded_by_generator_pairings():
    rng = np.random.default_rng(8)
    gens = (random_point(rng, MIN2, 1), random_point(rng, MIN2, 2))
    k = MatrixSet(MIN2, gens)
    f = SeparationCertificate(
        MIN2, rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    )
    gen_sup = max(matcore.operator_norm(pairing(f, g)) for g in k.generators)
    for _ in range(100):
        rep = reference_representation(k, int(rng.integers(1, 4)), rng)
        value = matcore.operator_norm(pairing(f, hull_element(k, rep)))
        assert value <= gen_sup + 1e-8


def test_check_certificate_scalar_case():
    k = MatrixSet(SCALAR, (scalar_point(0.5),))
    x0 = scalar_point(2.0)
    f = SeparationCertificate(SCALAR, np.array([[[1.0]]]))
    verdict = check_certificate(f, k, x0)
    assert verdict.valid
    assert verdict.generator_values[0] == 0.5
    assert verdict.target_value == 2.0


def test_find_certificate_scalar():
    k = MatrixSet(SCALAR, (scalar_point(0.5),))
    x0 = scalar_point(2.0)
    cert = find_certificate(k, x0, 1000, 9)
    assert cert is not None
    assert check_certificate(cert, k, x0).valid


def test_find_certificate_never_separates_generator():
    k = MatrixSet(SCALAR, (scalar_point(0.5),))
    cert = find_certificate(k, k.generators[0], 200, 9)
    assert cert is None


def test_find_certificate_coordinate_direction():
    # Norm separation fails here (0.8 < 0.9): only the functional direction
    # orthogonal to the generator separates.
    e1 = OpSpaceMatrix(MIN2, np.array([0.9, 0.0]).reshape(1, 1, -1))
    e2 = OpSpaceMatrix(MIN2, np.array([0.0, 0.8]).reshape(1, 1, -1))
    k = MatrixSet(MIN2, (e1,))
    cert = find_certificate(k, e2, 10000, 11)
    assert cert is not None
    assert check_certificate(cert, k, e2).valid


def test_find_certificate_inside_point_not_found():
    rng = np.random.default_rng(10)
    gen = random_point(rng, MK2, 1)
    gen = OpSpaceMatrix(MK2, gen.entries / matrix_norm(gen))
    k = MatrixSet(MK2, (gen,))
    inside = OpSpaceMatrix(MK2, 0.5 * gen.entries)
    assert find_certificate(k, inside, 300, 13) is None


@pytest.mark.parametrize("seed", ["x", -1, 2**70, 3.5, None])
def test_find_certificate_checks_seed_before_warm_starts(seed):
    # The first warm start separates this target, so only a seed check made
    # before it can reject the seed.
    config = json.loads((CONFIGS / "separate_scalar.json").read_text())
    k = descriptors.matrix_set_from_descriptor(config["set"])
    x0 = descriptors.space_matrix_from_descriptor(config["x0"], k.space)
    assert find_certificate(k, x0, config["budget"], config["seed"]) is not None
    with pytest.raises(InvalidInputError, match="seed must"):
        find_certificate(k, x0, config["budget"], seed)


def test_matrix_set_validation():
    with pytest.raises(InvalidInputError):
        MatrixSet(SCALAR, ())
    with pytest.raises(InvalidInputError):
        MatrixSet(SCALAR, (OpSpaceMatrix(MIN2, np.array([1.0, 0.0]).reshape(1, 1, -1)),))


# ---------------------------------------------------------------------------
# hull_norm_check's level stacks against the trial-by-trial loop they replace


def _trial_norms(k, trials, seed):
    """(level, norm) of each trial in turn, one trial at a time: the level from
    `derive_rng(seed)`, then α and β from the level's `derive_rng(seed, level)`."""
    levels = matcore.derive_rng(seed)
    rows = {level: matcore.derive_rng(seed, level) for level in (1, 2, 3)}
    for _ in range(int(trials)):
        level = int(levels.integers(1, 4))
        yield level, matrix_norm(hull_element(k, reference_representation(k, level, rows[level])))


def _trial_by_trial(k, trials, seed):
    """hull_norm_check as one trial at a time."""
    bound = set_norm(k)
    worst = -np.inf
    failures = 0
    for _, norm in _trial_norms(k, trials, seed):
        excess = norm - bound
        worst = max(worst, excess)
        if excess > 1e-8:
            failures += 1
    best_index = int(np.argmax([matrix_norm(g) for g in k.generators]))
    attained = matrix_norm(hull_element(k, identity_representation(k, best_index))) == bound
    return HullReport(
        passed=failures == 0 and attained,
        trials=int(trials),
        set_norm=float(bound),
        worst_excess=float(worst),
        identity_attained=attained,
        detail=f"{failures} sampled violations; identity representation attains the bound: {attained}",
    )


def _random_set(space, seed):
    rng = np.random.default_rng(seed)
    gens = []
    for level in rng.integers(1, 4, size=int(rng.integers(1, 4))):
        g = random_point(rng, space, int(level))
        gens.append(OpSpaceMatrix(space, g.entries * (rng.uniform(0.2, 1.0) / matrix_norm(g))))
    return MatrixSet(space, tuple(gens))


def _assert_same_report(report, expected):
    assert report == expected
    assert report.worst_excess.hex() == expected.worst_excess.hex()
    assert report.set_norm.hex() == expected.set_norm.hex()


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hull_norm_check_matches_trial_by_trial(name, seed):
    k = _random_set(SPACES[name], 10 * seed + list(SPACES).index(name))
    for trials in (1, 2, 3, 7, 60, 200):
        _assert_same_report(hull_norm_check(k, trials, seed), _trial_by_trial(k, trials, seed))


@pytest.mark.parametrize("stack_bytes", [1, 5000])
def test_hull_norm_check_chunks_match_trial_by_trial(monkeypatch, stack_bytes):
    # One trial per chunk, then chunks of a few trials each: the streams run
    # on across chunks, so the report is that of one chunk and of one trial
    # at a time.
    k = _random_set(MK2, 5)
    whole = hull_norm_check(k, 60, 4)
    monkeypatch.setattr(matcore, "STACK_BYTES", stack_bytes)
    chunked = hull_norm_check(k, 60, 4)
    _assert_same_report(chunked, _trial_by_trial(k, 60, 4))
    _assert_same_report(chunked, whole)


@pytest.mark.parametrize("trials", [1, 60, 200])
def test_hull_norm_check_makes_at_most_four_streams(monkeypatch, trials):
    # One stream for the levels and one per level, whatever the trial count.
    k = _random_set(MK2, 5)
    calls = []
    derive_rng = matcore.derive_rng

    def counting(*args):
        calls.append(args)
        return derive_rng(*args)

    monkeypatch.setattr(matcore, "derive_rng", counting)
    hull_norm_check(k, trials, 4)
    assert len(calls) <= 4


def test_sampled_norms_match_each_trial():
    k = _random_set(MIN2, 6)
    width = 4 * sum(g.level for g in k.generators)
    expected = {}
    for level, norm in _trial_norms(k, 200, 8):
        expected.setdefault(level, []).append(norm)
    for level, norms in expected.items():
        rows = matcore.derive_rng(8, level)
        draws = np.stack([rows.standard_normal(level * width) for _ in norms])
        got = mconvex._sampled_norms(k, level, draws)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in norms]


def test_hull_norm_check_stacks_by_level(monkeypatch):
    # Trial by trial, these 200 trials take about 1000 SVDs and 400 eighs.
    config = json.loads((CONFIGS / "hull_mk2.json").read_text())
    k = descriptors.matrix_set_from_descriptor(config["set"])
    calls = {"svd": 0, "eigh": 0}
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    hull_norm_check(k, 200, config["seed"])
    # Three levels of five norm stacks, two generator norms and the identity
    # representation's two constraint norms and its norm.
    assert calls["eigh"] <= 6
    assert calls["svd"] <= 3 * 5 + len(k.generators) + 3


@pytest.mark.parametrize("trials", [True, False, 1.5, "3", None])
def test_hull_norm_check_rejects_non_integer_trials(trials):
    k = MatrixSet(SCALAR, (scalar_point(0.7),))
    with pytest.raises(InvalidInputError):
        hull_norm_check(k, trials, 0)


def test_hull_norm_check_accepts_integral_trials():
    k = _random_set(MK2, 7)
    report = hull_norm_check(k, 60, 3)
    assert report.trials == 60
    _assert_same_report(hull_norm_check(k, np.int64(60), 3), report)
    _assert_same_report(hull_norm_check(k, 60.0, 3), report)


def test_hull_norm_check_checks_constraints_on_every_trial(monkeypatch):
    # `_normalize` computes both constraint norms of every trial once; a
    # trial it does not rescale has both <= 1, and one it rescales is
    # checked again, as is the identity representation.  Counts are of the
    # samples each call takes.
    k = _random_set(MIN2, 9)
    normed, checked = [], []
    norms, check = mconvex._constraint_norms, mconvex._check_constraints
    count = lambda alphas: int(np.prod(alphas[0].shape[:-2]))
    monkeypatch.setattr(mconvex, "_constraint_norms", lambda a, b: normed.append(count(a)) or norms(a, b))
    monkeypatch.setattr(mconvex, "_check_constraints", lambda a, b: checked.append(count(a)) or check(a, b))
    hull_norm_check(k, 50, 0)
    # No trial of this draw is rescaled: only the identity is checked again.
    assert sum(normed) == 51 and checked == [1]
    # Doubled inverse square roots put every trial at a constraint norm
    # near 4, so every one is rescaled and checked again.
    normed.clear(), checked.clear()
    inv_sqrt = mconvex._inv_sqrt
    monkeypatch.setattr(mconvex, "_inv_sqrt", lambda s: 2.0 * inv_sqrt(s))
    report = hull_norm_check(k, 50, 0)
    assert sum(checked) == 51 and sum(normed) == 50 + 51
    assert report.passed
    monkeypatch.setattr(mconvex, "_CONSTRAINT_TOL", -0.5)
    with pytest.raises(InvalidRepresentationError):
        hull_norm_check(k, 5, 0)

def _one_generator_set(space):
    return MatrixSet(space, (OpSpaceMatrix(space, np.full((1, 1, space.dim), 0.5, dtype=complex)),))


def _zero_point(space):
    return OpSpaceMatrix(space, np.zeros((1, 1, space.dim), dtype=complex))


def _coordinates(space):
    return SeparationCertificate(space, mconvex.coordinate_grid(space))


_REFUSED = {
    "no terms": (
        lambda: mconvex.validate_representation(_one_generator_set(SCALAR), HullRepresentation((), 1)),
        InvalidInputError,
        "representation has no terms",
    ),
    "an index out of range": (
        lambda: mconvex.validate_representation(
            _one_generator_set(SCALAR), HullRepresentation((HullTerm(np.eye(1), 1, np.eye(1)),), 1)
        ),
        InvalidInputError,
        "generator index 1 out of range",
    ),
    "a violated column constraint": (
        lambda: mconvex.validate_representation(
            _one_generator_set(SCALAR), HullRepresentation((HullTerm(0.5 * np.eye(1), 0, 2.0 * np.eye(1)),), 1)
        ),
        InvalidRepresentationError,
        "column constraint ‖Σ β*β‖ <= 1 violated",
    ),
    "a non-finite grid": (
        lambda: SeparationCertificate(MK2, np.full((1, 1, 4), np.nan)),
        InvalidInputError,
        "grid entries must be finite",
    ),
    "pairing across spaces": (
        lambda: pairing(_coordinates(MK2), _zero_point(ROW2)),
        InvalidInputError,
        "certificate and matrix live over different spaces",
    ),
    "checking across spaces": (
        lambda: check_certificate(_coordinates(MK2), _one_generator_set(ROW2), _zero_point(ROW2)),
        InvalidInputError,
        "certificate, matrix set and target live over different spaces",
    ),
    "searching across spaces": (
        lambda: find_certificate(_one_generator_set(MK2), _zero_point(ROW2), 10, 1),
        InvalidInputError,
        "matrix set and target live over different spaces",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_mconvex_refuses_with_its_message(case):
    make, error, message = _REFUSED[case]
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("space", [SCALAR, MK2], ids=["scalar", "matrix2"])
def test_a_zero_target_scales_to_no_certificate(space):
    # Every grid pairs the zero point to 0, so no scaling separates it.
    k, zero = _one_generator_set(space), _zero_point(space)
    assert mconvex._scale_to_certificate(k, zero, mconvex.coordinate_grid(space)) is None
    assert find_certificate(k, zero, 20, 3) is None


@pytest.mark.parametrize("budget", [1, 400])
def test_a_zero_target_returns_no_certificate_without_a_search(budget, monkeypatch):
    # The zero point lies in every absolutely matrix convex hull, so no grid
    # separates it: the search returns before its first check.
    calls = []

    def counted(*args):
        calls.append(args)
        return check_certificate(*args)

    monkeypatch.setattr(mconvex, "check_certificate", counted)
    rng = np.random.default_rng(4)
    gens = (OpSpaceMatrix(MK2, 0.2 * rng.standard_normal((m, m, 4))) for m in (1, 2))
    k = MatrixSet(MK2, tuple(gens))
    assert find_certificate(k, OpSpaceMatrix(MK2, np.zeros((2, 2, 4))), budget, 3) is None
    assert calls == []
