"""Property tests over random disk expression trees of depth <= 3: Taylor data
against an independent mpmath reference, evaluation, argument rescaling,
descriptor round trips, sandwich order, each search objective's exact
gradient against a central difference, and lacunary evaluation against the
term-by-term sum, bit for bit."""

import cmath
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cbnorm_lab import _search, descriptors, holofun, matcore, mconvex, opspace
from cbnorm_lab.cbnorm import _disk_problem, _space_problem, sandwich
from cbnorm_lab.holofun import (
    Blaschke,
    Composite,
    MoebiusQuotient,
    PowerSeries,
    Product,
    Scale,
    Sum,
    amplify,
    rescale_argument,
    taylor_coefficients,
)

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
@given(TREES, st.floats(0.05, 1.0), st.floats(0.0, 0.95), ANGLES)
def test_rescale_argument_is_substitution(f, t, r, angle):
    z = cmath.rect(r, angle)
    scale = 1.0 + float(mpmath.fsum(_mp_series(f, 400, majorant=True)))
    assert abs(_value_at(rescale_argument(f, t), z) - _value_at(f, t * z)) <= 1e-11 * scale


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


def _assert_exact_gradient(objective, x, h=1e-6):
    """The objective's gradient at the complex point x against a central
    difference along each of its n real coordinates (all real parts, then
    all imaginary parts), the 2n shifted points evaluated as one stack."""
    grad = objective(x[None])[1](0)
    exact = np.concatenate([grad.real.ravel(), grad.imag.ravel()])
    n = exact.size
    steps = h * np.concatenate([np.eye(n // 2), 1j * np.eye(n // 2)]).reshape(n, *x.shape)
    values, _ = objective(np.concatenate([x + steps, x - steps]))
    central = (values[:n] - values[n:]) / (2 * h)
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
        image = matcore.operator_norm(x.entries @ phi)
        assert image <= bound * opspace.matrix_norm(x) * (1.0 + 1e-12)


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
    assume(_simple_top(holofun.amplify(f, as_matrix(x))))
    _assert_exact_gradient(_space_problem(f, m)[0], x)


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
    gens = tuple(opspace._random_matrix_ball(rng, space, m, 0.7) for m in (1, 2))
    k = mconvex.MatrixSet(space, gens)
    x0 = mconvex.hull_element(k, mconvex.random_representation(k, level, rng))
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
    for new, old in zip(holofun._eval_array(f, z), _term_by_term(f, z)):
        assert new.shape == old.shape
        assert np.ascontiguousarray(new).tobytes() == old.tobytes()


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
