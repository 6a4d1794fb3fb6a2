"""Property tests over random disk expression trees of depth <= 3: Taylor data
against an independent mpmath reference, evaluation, the certified rule at a
radius t against the mpmath Σ|aₙ|·tⁿ, descriptor round trips, sandwich
order, the level-1 circle scan against the ascent it replaced and a fine
reference grid, norming elements of functionals on the builder spaces, each
search objective's exact gradient against a central difference, lacunary
evaluation against the term-by-term sum and value-only evaluation against
(F, F′), bit for bit, and the cap-ball bound W_cap against every level sup."""

import cmath
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from cbnorm_lab import _search, cbnorm, descriptors, holofun, matcore, mconvex, opspace
from cbnorm_lab.cbnorm import (
    RADIUS_CAP,
    _disk_problem,
    _norms_and_gradients,
    _space_problem,
    _upper_rules,
    cb_upper_bound,
    level_sup,
    sandwich,
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
    taylor_coefficients,
)
from hull_reference import reference_representation

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

mpmath.mp.dps = 40

ANGLES = st.floats(0.0, 2.0 * np.pi)
COEFFS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
DISK = st.builds(cmath.rect, st.floats(0.0, 0.9), ANGLES)


def _trees(depth):
    leaf = st.one_of(
        st.lists(COEFFS, min_size=1, max_size=4).map(PowerSeries),
        st.builds(
            lambda t, m, zeros: Blaschke(cmath.exp(1j * t), m, zeros),
            ANGLES,
            st.integers(1, 3),
            st.lists(DISK, max_size=2),
        ),
    )
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(MoebiusQuotient, sub, DISK),
        st.builds(Product, sub, sub),
        st.builds(Sum, sub, sub),
        st.builds(Scale, COEFFS, sub),
    )


TREES = _trees(3)


def _mp_mul(p, q):
    return [
        mpmath.fsum(p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q))
        for k in range(len(p) + len(q) - 1)
    ]


def _mp_rational(f):
    """Numerator coefficients and poles of f in 40-digit arithmetic, built
    from the tree independently of holofun."""
    if isinstance(f, PowerSeries):
        return [mpmath.mpc(0)] + [mpmath.mpc(c) for c in f.coeffs], []
    if isinstance(f, Blaschke):
        p = [mpmath.mpc(0)] * f.m + [mpmath.mpc(f.c)]
        for a in f.zeros:
            p = _mp_mul(p, [-mpmath.mpc(a), 1])
        return p, [mpmath.conj(mpmath.mpc(a)) for a in f.zeros]
    if isinstance(f, MoebiusQuotient):
        p, poles = _mp_rational(f.inner)
        return p, poles + [mpmath.mpc(f.a)]
    if isinstance(f, Scale):
        p, poles = _mp_rational(f.inner)
        return [mpmath.mpc(f.c) * c for c in p], poles
    (lp, lb), (rp, rb) = _mp_rational(f.left), _mp_rational(f.right)
    if isinstance(f, Product):
        return _mp_mul(lp, rp), lb + rb
    for b in lb:
        rp = _mp_mul(rp, [1, -b])
    for b in rb:
        lp = _mp_mul(lp, [1, -b])
    n = max(len(lp), len(rp))
    lp, rp = lp + [0] * (n - len(lp)), rp + [0] * (n - len(rp))
    return [x + y for x, y in zip(lp, rp)], lb + rb


def _mp_series(f, n, majorant=False):
    """a_0..a_n by the recurrence g_i = h_i + b·g_(i-1) for each pole, or the
    coefficients of the majorant Σ|p_k|z^k / Π(1 − |b|z)."""
    p, poles = _mp_rational(f)
    lift = abs if majorant else (lambda x: x)
    a = [lift(c) for c in p[: n + 1]] + [mpmath.mpf(0)] * (n + 1 - len(p))
    for b in poles:
        b = lift(b)
        for i in range(1, n + 1):
            a[i] += b * a[i - 1]
    return a


@PROPERTY
@given(TREES, st.integers(1, 256))
# A truncated power series whose dropped tail the certified sum must cover.
@example(PowerSeries([1, 0.1 + 0.1j, 0.1 + 1.3j]), 1)
def test_taylor_coefficients_match_mpmath_and_bound_the_abs_sum(f, k):
    tc = taylor_coefficients(f, k)
    exact = _mp_series(f, 2000)
    majorant = _mp_series(f, k, majorant=True)
    for n in range(1, k + 1):
        assert abs(tc.coeffs[n - 1] - exact[n]) <= 1e-11 * majorant[n] + 1e-300
    assert tc.tail_bound >= 0.0
    certified = mpmath.fsum(abs(mpmath.mpc(c)) for c in tc.coeffs) + tc.tail_bound
    assert certified >= mpmath.fsum(abs(c) for c in exact[1:])


def _value_at(f, z):
    """f(z) for a disk function: its amplification at the 1×1 matrix [z]."""
    return amplify(f, np.array([[z]]))[0, 0]


@PROPERTY
@given(TREES, st.floats(0.0, 0.5), ANGLES)
def test_taylor_series_sums_to_the_function(f, r, angle):
    k = 128
    z = cmath.rect(r, angle)
    tc = taylor_coefficients(f, k)
    terms = tc.coeffs * z ** np.arange(1, k + 1)
    tol = 1e-12 * (1.0 + np.sum(np.abs(terms))) + r ** (k + 1) * tc.tail_bound
    assert abs(np.sum(terms) - _value_at(f, z)) <= tol


@PROPERTY
@given(TREES)
def test_descriptor_round_trip(f):
    d = descriptors.function_to_descriptor(f)
    assert descriptors.function_to_descriptor(descriptors.function_from_descriptor(d)) == d


@PROPERTY
@given(TREES, st.integers(0, 2**32))
def test_sandwich_lower_below_upper(f, seed):
    est = sandwich(f, 2, 40, seed)
    assert est.lower <= est.upper + 1e-6


def _clip(stack):
    """The projection of the level-1 search the circle scan replaced: clip
    singular values at RADIUS_CAP, and keep each point inside as given."""
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    clipped = (u * np.minimum(s, RADIUS_CAP)[..., None, :]) @ vh
    return np.where((s > RADIUS_CAP).any(axis=-1)[..., None, None], clipped, stack)


def _level_one_ascent(f, budget, seed):
    """The best value of the level-1 search the circle scan replaced:
    restarts of projected ascent, each from a start whose radius, drawn
    first, crowds toward the cap, clipped into the ball."""
    objective = _disk_problem(f, 1)[0]

    def start_inside(rng):
        u = float(rng.uniform(0.0, 1.0))
        radius = RADIUS_CAP * (1.0 - 0.999 * u * u)
        return opspace._random_matrix_ball(rng, opspace.space_scalar(), 1, radius)[..., 0]

    return max(value for _, value in _search.restarts(objective, _clip, start_inside, budget, seed, 1))


def _circle_reference(f, k=2**16):
    """max |f| over k equally spaced points of |z| = RADIUS_CAP, from the
    40-digit rational form rounded to complex128."""
    p, poles = _mp_rational(f)
    z = RADIUS_CAP * np.exp(2j * np.pi * np.arange(k) / k)
    values = np.polyval([complex(c) for c in p[::-1]], z)
    for b in poles:
        values /= 1.0 - complex(b) * z
    return float(np.max(np.abs(values)))


@PROPERTY
@given(TREES, st.integers(0, 2**32))
def test_circle_scan_is_never_worse_than_the_ascent_it_replaced(f, seed):
    reference = _circle_reference(f)
    for budget, tol in ((300, 1e-9), (2000, 1e-12)):
        scan = level_sup(f, 1, budget, seed).value
        assert scan >= _level_one_ascent(f, budget, seed) * (1.0 - tol)
        assert scan >= reference * (1.0 - 1e-12)


def _lacunary(n, coeffs):
    c = np.zeros(n, dtype=np.complex128)
    for i, a in enumerate(coeffs):
        c[(n - 1) * (i + 1) // len(coeffs)] = a
    return PowerSeries(c)


LACUNARY = st.builds(_lacunary, st.integers(65, 96), st.lists(COEFFS, min_size=1, max_size=4))
SCALARS = st.one_of(TREES, LACUNARY, st.builds(Product, LACUNARY, TREES))
SPACES = st.sampled_from([opspace.space_row(2), opspace.space_min_linf(2), opspace.space_mk(2)])
CUSTOM = opspace.ConcreteOperatorSpace(
    np.array([[[1.0, 0.5], [0.0, 1.0]], [[0.0, 1.0j], [2.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
)
FOUR_SPACES = st.sampled_from(
    [opspace.space_min_linf(3), opspace.space_row(2), opspace.space_mk(2), CUSTOM]
)


def _simple_top(*matrices):
    """Whether each matrix's top singular value is clear of the next,
    σ₁ − σ₂ > 1e-3·σ₁, so that σ₁ is differentiable there."""
    for a in matrices:
        s = np.linalg.svd(a, compute_uv=False)
        if not s[0] - (s[1] if s.size > 1 else 0.0) > 1e-3 * s[0]:
            return False
    return True


def _parts(z):
    """The real vector of all real parts, then all imaginary parts."""
    return np.concatenate([z.real.ravel(), z.imag.ravel()])


def _central(values_of, x, h=1e-6):
    """The central difference of a real function at the complex point x along
    each of its n real coordinates (all real parts, then all imaginary
    parts), the 2n shifted points evaluated as one stack by `values_of`."""
    n = 2 * x.size
    steps = h * np.concatenate([np.eye(n // 2), 1j * np.eye(n // 2)]).reshape(n, *x.shape)
    values = values_of(np.concatenate([x + steps, x - steps]))
    return (values[:n] - values[n:]) / (2 * h)


def _assert_exact_gradient(objective, x):
    """The objective's gradient at the complex point x against its central
    difference."""
    exact = _parts(objective(x[None])[1](0))
    central = _central(lambda stack: objective(stack)[0], x)
    assert np.max(np.abs(exact - central)) <= 1e-6 * np.max(np.abs(exact))


def _point(rng, norm_of, shape, radius):
    draw = rng.standard_normal((2, *shape))
    z = draw[0] + 1j * draw[1]
    return z * (radius / norm_of(z))


@PROPERTY
@given(SCALARS, st.integers(1, 3), st.floats(0.1, 0.9), st.integers(0, 2**32))
def test_disk_objective_gradient_is_exact(f, m, r, seed):
    x = _point(np.random.default_rng(seed), matcore.operator_norm, (m, m), r)
    assume(_simple_top(holofun.amplify(f, x)))
    _assert_exact_gradient(_disk_problem(f, m)[0], x)


def _functional(rng, space, r):
    phi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    phi *= r / opspace.closed_form_dual_norm(space, phi)
    return phi, opspace.closed_form_dual_norm(space, phi)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 3), st.integers(0, 2**32))
def test_extension_bound_dominates_the_functional_on_custom_spaces(n, d, m, seed):
    # The functional's cb norm is its norm, so at every level the scalar
    # image (φ(x_ij)) has norm <= ‖φ‖·‖x‖ <= the bound·‖x‖.  On M_1 the
    # bound is |φ/b| and equality holds, up to rounding.
    rng = np.random.default_rng(seed)
    shape = (min(d, n * n), n, n)
    space = opspace.ConcreteOperatorSpace(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    phi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    bound = opspace.closed_form_dual_norm(space, phi)
    for _ in range(10):
        x = opspace._random_matrix_ball(rng, space, m, 0.5)
        image = matcore.operator_norm(x @ phi)
        assert image <= bound * opspace.matrix_norm(opspace.OpSpaceMatrix(space, x)) * (1.0 + 1e-12)


# Every row of the builder table, at each size up to 3 that it allows.
BUILDER_SPACES = [
    opspace.builder_space(kind, n) for kind in opspace._KINDS for n in ((1,) if kind == "scalar" else (1, 2, 3))
]


@PROPERTY
@given(st.integers(0, 2**32))
def test_extension_norm_matches_the_closed_form_on_builder_spaces(seed):
    rng = np.random.default_rng(seed)
    for space in BUILDER_SPACES:
        phi = rng.uniform(0.01, 3.0) * (rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim))
        closed = opspace.closed_form_dual_norm(space, phi)
        assert abs(opspace._extension_norm(space, phi) - closed) <= 4 * np.spacing(closed)


@PROPERTY
@given(st.integers(0, 2**32), st.sampled_from(["dense", "some zeros", "zero"]))
def test_norming_element_has_unit_norm_and_attains_the_dual_norm(seed, zeros):
    # e is a level-1 point of norm 1 with φ(e) = ‖φ‖, up to rounding; the
    # zero functional, and φ with zero coordinates, included.
    rng = np.random.default_rng(seed)
    for space in BUILDER_SPACES:
        phi = rng.uniform(0.01, 3.0) * (rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim))
        if zeros == "some zeros":
            phi[rng.random(space.dim) < 0.5] = 0.0
        elif zeros == "zero":
            phi[:] = 0.0
        e = opspace.norming_element(space, phi)
        assert opspace.matrix_norm(opspace.OpSpaceMatrix(space, e.reshape(1, 1, -1))) <= 1.0 + 4 * 2.0**-52
        closed = opspace.closed_form_dual_norm(space, phi)
        assert abs(phi @ e - closed) <= 1e-12 * closed


def _block_norms(space, stack):
    return matcore.operator_norms(opspace.block_matrix(stack, space.basis))


@PROPERTY
@given(
    SCALARS, SPACES, st.floats(0.1, 0.9), st.integers(1, 3), st.floats(0.1, 0.9), st.booleans(), st.integers(0, 2**32)
)
def test_space_objective_gradient_is_exact(scalar, space, r, m, radius, times_geometric, seed):
    rng = np.random.default_rng(seed)
    f = Composite(scalar, space, *_functional(rng, space, r))
    if times_geometric:  # two functionals: ∂F/∂E is no multiple of one φ
        f = Product(f, holofun.GeometricPhi(space, *_functional(rng, space, 0.5)))
    shape = (m, m, space.dim)
    as_matrix = lambda z: opspace.OpSpaceMatrix(space, z)
    x = _point(rng, lambda z: opspace.matrix_norm(as_matrix(z)), shape, radius)
    assume(_simple_top(holofun.amplify(f, as_matrix(x)), opspace.realize(as_matrix(x))))
    # The Euclidean gradient, from the same SVD as the search's objective.
    euclidean = lambda stack: _norms_and_gradients(*holofun._eval_array(f, stack))
    _assert_exact_gradient(euclidean, x)
    # The search's gradient is its tangent part on the sphere through x,
    # whose normal is the gradient of the block norm.
    raw = _parts(euclidean(x[None])[1](0))
    normal = _central(lambda stack: _block_norms(space, stack), x)
    tangent = raw - (raw @ normal) / (normal @ normal) * normal
    objective = _space_problem(f, m)[0]
    assert np.max(np.abs(_parts(objective(x[None])[1](0)) - tangent)) <= 1e-6 * np.max(np.abs(raw))


@PROPERTY
@given(TREES, st.sampled_from(BUILDER_SPACES), st.integers(1, 3), st.booleans(), st.integers(0, 2**32))
def test_space_search_stays_on_the_cap_sphere(scalar, space, m, times_geometric, seed):
    rng = np.random.default_rng(seed)
    f = Composite(scalar, space, *_functional(rng, space, 0.6))
    if times_geometric:
        f = Product(f, holofun.GeometricPhi(space, *_functional(rng, space, 0.5)))
    _, project, start = _space_problem(f, m)
    # Points inside and outside the cap ball, with −0.0 and +0.0 parts.
    stack = np.stack([scale * start(rng) for scale in (1e-3, 0.1, 1.0, 10.0, 1e3)])
    parts = stack.view(np.float64)
    parts[rng.random(parts.shape) < 0.3] = 0.0
    parts[rng.random(parts.shape) < 0.3] *= -0.0
    assume(np.all(np.any(stack != 0.0, axis=(1, 2, 3))))
    out = project(stack)
    # The SVD of a block matrix of order up to 9 rounds its norm by up to
    # about one ulp per order: at most 10 ulps over 15 600 draws.
    ulps = 16 * np.spacing(RADIUS_CAP)
    norms = _block_norms(space, out)
    assert np.all(np.abs(norms - RADIUS_CAP) <= ulps) and np.all(norms < 1.0)
    signs = lambda z: np.signbit(z.view(np.float64))
    assert np.array_equal(signs(out), signs(stack))
    assert np.array_equal(out.view(np.float64) == 0.0, parts == 0.0)
    # Every searched witness at a level >= 2 lies on the sphere.
    if m >= 2:
        w = level_sup(f, m, 120, seed)
        assert abs(_block_norms(space, w.matrix.entries[None])[0] - RADIUS_CAP) <= ulps


@PROPERTY
@given(TREES, TREES, st.sampled_from(BUILDER_SPACES), st.booleans(), st.booleans(), st.integers(0, 2**32))
# A subnormal F, whose phase as a complex quotient overflows.
@example(PowerSeries([0j]), PowerSeries([2.2250738585e-313j]), opspace.space_scalar(), False, False, 0)
def test_level_one_polish_only_climbs_and_stays_in_the_ball(g, h, space, product, geometric, seed):
    # Level 1 of a product or sum of two functional leaves: the Frank–Wolfe
    # polish of the joint scan's witness accepts only steps that raise the
    # value, ends at a point with a nonnegative FW gap max_S Re⟨ψ, S − X⟩
    # over the cap ball (up to rounding of its two terms), and stays inside
    # the unit ball.
    rng = np.random.default_rng(seed)
    first = Composite(g, space, *_functional(rng, space, rng.uniform(0.3, 0.8)))
    phi, r = _functional(rng, space, rng.uniform(0.3, 0.8))
    second = holofun.GeometricPhi(space, phi, r) if geometric else Composite(h, space, phi, r)
    f = Product(first, second) if product else Sum(first, Scale(0.5 - 0.25j, second))
    point, value, _ = cbnorm._circle_scan(f, 150, cbnorm._scan_unit(f))
    objective, oracle = cbnorm._polish_problem(f)
    climbed = []  # the value at each point whose gradient the polish took

    def recording(stack):
        values, gradient_at = objective(stack)
        return values, lambda i: climbed.append(values[i]) or gradient_at(i)

    x, polished = _search.polish(recording, oracle, point, value, _search.Budget(150))
    assert climbed[0] == value and np.all(np.diff(climbed) > 0) and polished >= climbed[-1]
    w = level_sup(f, 1, 300, seed)
    assert w.value == polished and w.matrix.entries.tobytes() == x.tobytes()
    grad = objective(x[None])[1](0)
    best = _search.inner(grad, oracle(grad))
    assert best - _search.inner(grad, x) >= -1e-15 * best
    assert opspace.matrix_norm(w.matrix) < 1.0


def _objective_of(module, run):
    """The objective that `run` hands to `restarts` through `module`; the
    search itself is skipped."""
    captured = []
    with mock.patch.object(module, "restarts", lambda objective, *args: captured.append(objective) or ()):
        run()
    return captured[0]


@PROPERTY
@given(FOUR_SPACES, st.integers(1, 2), st.integers(0, 2**32))
def test_certificate_objective_gradient_is_exact(space, level, seed):
    rng = np.random.default_rng(seed)
    gens = tuple(opspace.OpSpaceMatrix(space, opspace._random_matrix_ball(rng, space, m, 0.7)) for m in (1, 2))
    k = mconvex.MatrixSet(space, gens)
    x0 = mconvex.hull_element(k, reference_representation(k, level, rng))
    objective = _objective_of(mconvex, lambda: mconvex.find_certificate(k, x0, 20, seed=4))
    draw = rng.standard_normal((2, 1, level, level, space.dim))
    x = _search.to_sphere(draw[0] + 1j * draw[1])[0]
    f = mconvex.SeparationCertificate(space, x)
    values = sorted(mconvex.check_certificate(f, k, x0).generator_values)
    assume(values[-1] - values[-2] > 1e-3 * values[-1])  # one active generator
    assume(_simple_top(*(mconvex.pairing(f, g) for g in (x0, *gens))))
    _assert_exact_gradient(objective, x)


def test_lacunary_strategy_takes_the_term_by_term_path():
    assert _lacunary(80, [1.0, 2.0])._lacunary is not None


def _term_by_term(f, z):
    """(F, F′) of a lacunary series summed one term at a time, as
    `_eval_array` summed it before its terms were evaluated in one call."""
    out, der = np.zeros_like(z), np.zeros_like(z)
    for i in f._lacunary:
        out = out + f.coeffs[i] * z ** (i + 1)
        der = der + (i + 1) * f.coeffs[i] * z**i
    return out, der


def _signed_stack(rng, rows, level, radius):
    """A stack of `rows` level×level points with entries of modulus at most
    `radius`.  Past the first entry, some real or imaginary parts are −0.0,
    and some entries are −0.0 − 0.0j."""
    z = rng.standard_normal((rows, level, level)) + 1j * rng.standard_normal((rows, level, level))
    z *= radius / np.max(np.abs(z))
    parts = z.reshape(-1).view(np.float64).reshape(-1, 2)
    parts[1::3, 0] = -0.0
    parts[2::5, 1] = -0.0
    parts[3::7] = -0.0
    return z


def _assert_term_by_term_bits(f, z):
    reference = _term_by_term(f, z)
    for new, old in zip(holofun._eval_array(f, z), reference):
        assert new.shape == old.shape
        assert np.ascontiguousarray(new).tobytes() == old.tobytes()
    value, derivative = holofun._eval_array(f, z, False)
    assert derivative is None and np.ascontiguousarray(value).tobytes() == reference[0].tobytes()


_STACKS = [(rows, level) for rows in (1, 3, 30) for level in (1, 2, 4, 8)]


@PROPERTY
@given(LACUNARY, st.floats(0.05, 0.99), st.integers(0, 2**32))
def test_lacunary_evaluation_has_the_bits_of_the_term_by_term_sum(f, radius, seed):
    # Exponents below 100, which numpy raises by repeated squaring.  A
    # one-term series on a 1×1 point is where a product of one-element
    # arrays would round differently.
    rng = np.random.default_rng(seed)
    for rows, level in _STACKS:
        z = _signed_stack(rng, rows, level, radius)
        _assert_term_by_term_bits(f, z)
        _assert_term_by_term_bits(f, z[0])


def _binary_lacunary():
    """Σ_{k=1}^{12} 2^-k·z^(2^k) of degree 4096, as the benchmark builds it."""
    c = np.zeros(2**12)
    c[2 ** np.arange(1, 13) - 1] = 2.0 ** -np.arange(1, 13)
    return PowerSeries(c)


@pytest.mark.parametrize("rows, level", _STACKS)
def test_lacunary_evaluations_have_the_term_by_term_bits(rows, level):
    # Exponents from 128 take numpy's cpow; a series with no nonzero term
    # sums to +0 everywhere; and series of 1, 2 and 4 terms with random
    # coefficients, whose products round where the strategy's simple
    # coefficients often multiply exactly.
    rng = np.random.default_rng(100 * rows + level)
    drawn = [
        _lacunary(int(rng.integers(65, 97)), rng.uniform(-2.0, 2.0, k) + 1j * rng.uniform(-2.0, 2.0, k))
        for k in (1, 2, 4)
    ]
    for f in (_binary_lacunary(), PowerSeries(np.zeros(100)), *drawn):
        assert f._lacunary is not None
        for radius in (1e-3, 0.5, 0.99):
            z = _signed_stack(rng, rows, level, radius)
            _assert_term_by_term_bits(f, z)
            _assert_term_by_term_bits(f, z[0])


@PROPERTY
@given(SCALARS, SPACES, st.floats(0.05, 0.99), st.integers(0, 2**32))
def test_value_only_evaluation_keeps_the_bits_of_f(scalar, space, radius, seed):
    # F without F′ equals F of (F, F′) byte for byte: on disk functions,
    # and over a space on a composite and its product with a GeometricPhi,
    # at points E with E·φ = z.
    rng = np.random.default_rng(seed)
    phi, norm = _functional(rng, space, 0.9)
    composite = Composite(scalar, space, phi, norm)
    pair = Product(composite, GeometricPhi(space, *_functional(rng, space, 0.5)))
    along = np.conj(phi) / np.vdot(phi, phi).real
    for rows, level in _STACKS:
        z = _signed_stack(rng, rows, level, radius)
        for point in (z, z[0]):
            value, derivative = holofun._eval_array(scalar, point, False)
            assert derivative is None and value.tobytes() == holofun._eval_array(scalar, point)[0].tobytes()
            entries = point[..., None] * along
            for f in (composite, pair):
                value, derivative = holofun._eval_array(f, entries, False)
                full = holofun._eval_array(f, entries)[0]
                assert derivative is None and value.tobytes() == full.tobytes()


def _one_functional(scalar, space, r, geometric, seed):
    phi, norm = _functional(np.random.default_rng(seed), space, r)
    return GeometricPhi(space, phi, norm) if geometric else Composite(scalar, space, phi, norm)


ONE_FUNCTIONAL = st.builds(_one_functional, TREES, SPACES, st.floats(0.0, 0.9), st.booleans(), st.integers(0, 2**32))
# Disk trees or one-functional variants, each branch drawn about half the
# time: st.one_of(TREES, ONE_FUNCTIONAL) would flatten TREES into its own
# branches and draw the functional one seldom.
CAPPED = st.integers(0, 1).flatmap((TREES, ONE_FUNCTIONAL).__getitem__)


def _bits(x):
    return np.float64(x).tobytes()


# One-functional variants over the row space, kept as explicit examples.
ROW_COMPOSITE = _one_functional(Blaschke(1.0, 1, [0.5]), opspace.space_row(2), 0.8, False, 1)
ROW_GEOMETRIC = _one_functional(None, opspace.space_row(2), 0.8, True, 1)


@PROPERTY
@given(CAPPED, st.integers(1, 60), st.integers(0, 2**32))
def test_schwarz_check_passes_at_the_upper_bound_whatever_the_chunk_size(f, trials, seed):
    # Every function vanishes at 0, so ‖f_m(X)‖ <= ‖f‖_cb·‖X‖ at every
    # level, and the certified upper bound passes.  The streams run on
    # across chunks, so one trial a chunk gives the same report.
    try:
        upper = cb_upper_bound(f)
    except InvalidInputError:  # no certified bound: it overflows or is subnormal
        reject()
    report = cbnorm.schwarz_check(f, upper, trials, seed)
    assert report.passed and report.trials == trials
    with mock.patch.object(matcore, "STACK_BYTES", 1):
        assert cbnorm.schwarz_check(f, upper, trials, seed) == report


@PROPERTY
@given(CAPPED, st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
@example(Blaschke(1.0, 1, [0.5]), 1.0, RADIUS_CAP)
@example(ROW_COMPOSITE, 0.5, 0.9)
@example(ROW_GEOMETRIC, 0.5, 0.9)
def test_the_rule_at_radius_t_majorizes_the_series_at_t(f, t, s):
    # The rule at radius t bounds Σ|aₙ|·tⁿ, grows with t, is the upper bound
    # at t = 1 and, for a one-functional composite, is its scalar's rule at
    # r·t.  Radii stay above 1e-3, where the terms stay normal floats.
    bound, _ = _upper_rules(f, t)
    r = mpmath.mpf(getattr(f, "certified_norm", 1.0))
    if isinstance(f, GeometricPhi):
        series = r * t / (1 - r * t)
    else:
        g = f.scalar if isinstance(f, Composite) else f
        series = mpmath.fsum(abs(a) * (r * t) ** n for n, a in enumerate(_mp_series(g, 2000)) if n)
    # The rules round to nearest, so a relative slack.
    assert bound >= series * (1 - mpmath.mpf(1e-12))
    assert _upper_rules(f, min(t, s))[0] <= _upper_rules(f, max(t, s))[0]
    assert _bits(_upper_rules(f, 1.0)[0]) == _bits(cb_upper_bound(f))
    if isinstance(f, Composite) and f.certified_norm > 0.0:
        assert _bits(bound) == _bits(_upper_rules(f.scalar, f.certified_norm * t)[0])


@PROPERTY
@given(CAPPED, st.integers(0, 2**32))
@example(Blaschke(1.0, 1, [0.5]), 1)
@example(ROW_COMPOSITE, 1)
def test_no_level_sup_passes_the_cap_ball_bound(f, seed):
    # W_cap, the certified rule at radius RADIUS_CAP, bounds every level sup
    # over the ball of radius RADIUS_CAP, so a level that the lower table
    # lifts unsearched once the lower bound meets W_cap could not have won.
    # The rule grows with the radius, so W_cap is at most the upper bound.
    # With W_cap as its ceiling, as the lower table calls it, a level sup
    # spends at most its budget, its witness recomputes bit for bit, and a
    # level whose unstopped value stays below the ceiling is the unstopped
    # one, bit for bit.
    cap, _ = _upper_rules(f, RADIUS_CAP)
    assert cap <= cb_upper_bound(f)
    met = cap * (1.0 - cbnorm._ROUNDING_TIE)
    bits = lambda w: (np.float64(w.value).tobytes(), np.asarray(getattr(w.matrix, "entries", w.matrix)).tobytes())
    for m in (1, 2, 4, 8):
        free, capped = level_sup(f, m, 60, seed), level_sup(f, m, 60, seed, ceiling=met)
        for w in (free, capped):
            assert w.value <= cap * (1.0 + 1e-12) and 0 < w.samples <= 60
        assert _bits(cbnorm.witness_value(f, capped)) == _bits(capped.value)
        if free.value < met:
            assert bits(capped) == bits(free) and capped.samples == free.samples
