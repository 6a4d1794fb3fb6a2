"""Symbolic holomorphic functions vanishing at 0, their Taylor coefficients,
and entrywise amplification to matrix arguments.

Two kinds of domain coexist: disk functions (power series, Blaschke products,
Möbius quotients and their sums/products) act entrywise on complex matrices in
the open spectral unit ball; functional composites act on matrices over a
concrete operator space by first applying a linear functional entrywise and
then the scalar part; the functional's norm, certified from its space when it
is built, is below 1, so the image of the ball lies in the open disk.  Every
variant takes the value 0 at 0, which makes zero-padding invariant under
amplification.

Every disk function is rational, p(z)/Π_b (1 − b·z) with |b| < 1 and the
poles known from the construction; `_exact_rational` builds that form in exact
arithmetic, and all Taylor data (coefficients and tail bound) comes from it.
Certified bounds on f over a ball of any radius are `cbnorm._upper_rules`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matcore, opspace
from .errors import ConfigurationError, DomainError, InvalidInputError
from .opspace import ConcreteOperatorSpace, OpSpaceMatrix, closed_form_dual_norm, matrix_norm, same_space

# Fewest and most Taylor terms `blaschke_truncation` sizes a truncation to.
_MIN_TRUNCATION, _MAX_TRUNCATION = 256, 2048


class HoloFunction:
    """Base class; concrete variants are the dataclasses below."""

    # None for disk functions; a variant over a concrete space stores that
    # space in `__post_init__`.  A plain attribute, not a dataclass field, so
    # no constructor takes it and no repr shows it.
    domain_space = None


def _set_functional(f) -> None:
    """Check f's functional against f.space and store φ as complex
    coefficients, r = max(stated norm, the norm that `closed_form_dual_norm`
    computes from the space) as its certified norm, and the space as its
    domain.  A functional's cb norm is its norm, so g∘φ maps the ball into
    the disk exactly when it is < 1."""
    space = f.space
    if not isinstance(space, ConcreteOperatorSpace):
        raise InvalidInputError("functional variants need a ConcreteOperatorSpace")
    phi = np.asarray(f.phi, dtype=np.complex128)
    if phi.shape != (space.dim,):
        raise InvalidInputError(f"functional must have {space.dim} coefficients")
    if not np.all(np.isfinite(phi)):
        raise InvalidInputError("functional coefficients must be finite")
    if f.certified_norm is None:
        raise ConfigurationError("functional has no certified norm")
    certified_norm = float(f.certified_norm)
    if not 0.0 <= certified_norm < 1.0:
        raise ConfigurationError(f"certified norm must lie in [0, 1), got {certified_norm}")
    norm = closed_form_dual_norm(space, phi)
    if not norm < 1.0:
        raise ConfigurationError(f"functional has norm {norm} on its space, not below 1")
    object.__setattr__(f, "phi", phi)
    object.__setattr__(f, "certified_norm", max(certified_norm, norm))
    object.__setattr__(f, "domain_space", space)


def _norming(f) -> np.ndarray | None:
    """A norming element of f's functional (`opspace.norming_element`), the
    unit of the circle that level 1's scan searches (`cbnorm._scan_unit`):
    found once per function object, on first use."""
    return opspace.norming_element(f.space, f.phi)


@dataclass(frozen=True, eq=False)
class PowerSeries(HoloFunction):
    """Polynomial Σ_{n>=1} coeffs[n-1]·z^n (no constant term by construction)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size < 1:
            raise InvalidInputError("coefficients must be a non-empty 1-D array")
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        # Indices of the nonzero coefficients of a long lacunary series,
        # which `_eval_array` sums term by term; None for dense Horner.
        nonzero = np.flatnonzero(c)
        lacunary = c.size > 64 and nonzero.size <= c.size // 8
        object.__setattr__(self, "_lacunary", nonzero if lacunary else None)


@dataclass(frozen=True, eq=False)
class Blaschke(HoloFunction):
    """Finite Blaschke product c·z^m·Π_j (z − a_j)/(1 − conj(a_j)·z), m >= 1."""

    c: complex
    m: int
    zeros: np.ndarray = ()

    def __post_init__(self):
        c = complex(self.c)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise InvalidInputError(f"leading constant must be unimodular, got |c|={abs(c)}")
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise InvalidInputError("zero order at the origin must be a positive integer")
        # Past the longest truncation every Taylor coefficient of z^m·B lies
        # beyond it, and the exact rational form would build m + 1 Fractions.
        if self.m > _MAX_TRUNCATION:
            raise InvalidInputError(f"zero order at the origin must be at most {_MAX_TRUNCATION}, got {self.m}")
        z = np.asarray(self.zeros, dtype=np.complex128).reshape(-1)
        if z.size and not np.max(np.abs(z)) < 1.0:
            raise InvalidInputError("Blaschke zeros must lie strictly inside the disk")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "zeros", z)

    @functools.cached_property
    def taylor(self) -> TaylorCoeffs:
        """The Taylor data of the coefficient-sum rule, which
        `cbnorm._upper_rules` weighs at each radius: expanded once per
        function object, on first use."""
        return taylor_coefficients(self, blaschke_truncation(self.zeros))


@dataclass(frozen=True, eq=False)
class MoebiusQuotient(HoloFunction):
    """inner(z) / (1 − a·z) for a disk-domain inner function and |a| < 1."""

    inner: HoloFunction
    a: complex

    def __post_init__(self):
        if not isinstance(self.inner, HoloFunction) or self.inner.domain_space is not None:
            raise InvalidInputError("quotient inner function must be disk-domain")
        a = complex(self.a)
        if not abs(a) < 1.0:
            raise InvalidInputError(f"quotient parameter must satisfy |a| < 1, got {abs(a)}")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True, eq=False)
class GeometricPhi(HoloFunction):
    """x ↦ φ(x)/(1 − φ(x)) for a functional of norm r < 1 (`_set_functional`)."""

    space: ConcreteOperatorSpace
    phi: np.ndarray
    certified_norm: float

    __post_init__ = _set_functional
    norming = functools.cached_property(_norming)


@dataclass(frozen=True, eq=False)
class Composite(HoloFunction):
    """x ↦ scalar(φ(x)): a disk function after a functional of norm r < 1."""

    scalar: HoloFunction
    space: ConcreteOperatorSpace
    phi: np.ndarray
    certified_norm: float

    def __post_init__(self):
        if not isinstance(self.scalar, HoloFunction) or self.scalar.domain_space is not None:
            raise InvalidInputError("composite scalar part must be disk-domain")
        _set_functional(self)

    norming = functools.cached_property(_norming)


@dataclass(frozen=True, eq=False)
class _Pair(HoloFunction):
    """Two operands over one domain: both disk, or the same space."""

    left: HoloFunction
    right: HoloFunction

    def __post_init__(self):
        ls, rs = self.left.domain_space, self.right.domain_space
        if (ls is None) != (rs is None) or (ls is not None and not same_space(ls, rs)):
            raise InvalidInputError("operands must share a domain (both disk, or the same space)")
        object.__setattr__(self, "domain_space", ls)


@dataclass(frozen=True, eq=False)
class Product(_Pair):
    """x ↦ left(x)·right(x)."""


@dataclass(frozen=True, eq=False)
class Sum(_Pair):
    """x ↦ left(x) + right(x)."""


@dataclass(frozen=True, eq=False)
class Scale(HoloFunction):
    """c·inner; nested scales collapse at construction to a canonical form."""

    c: complex
    inner: HoloFunction

    def __post_init__(self):
        c = complex(self.c)
        inner = self.inner
        if not np.isfinite(c.real) or not np.isfinite(c.imag):
            raise InvalidInputError("scale factor must be finite")
        while isinstance(inner, Scale):
            c *= inner.c
            inner = inner.inner
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "domain_space", inner.domain_space)


@dataclass(frozen=True)
class TaylorCoeffs:
    """Coefficients a_1..a_K at 0 plus a bound on Σ_{n>K}|a_n| that also
    covers the rounding in the coefficients."""

    coeffs: np.ndarray
    tail_bound: float


# ---------------------------------------------------------------------------
# Evaluation


def _eval_array(f: HoloFunction, z, derivative: bool = True):
    """Entrywise value and derivative (F, F′) of f on a stack of points of its
    domain: complex (…, m, m) arrays, or over a space (…, m, m, d) grids E,
    where F′ = ∂F_ij/∂E_ijk (g′(E_ij·φ)·φ_k for g∘φ).  Only the `GeometricPhi`
    and `Composite` leaves apply φ.  Without `derivative`, F′ is None and is
    never computed; F has the same bits either way, as no step of F reads F′."""
    if isinstance(f, PowerSeries):
        idx = f._lacunary
        if idx is not None:
            # Long lacunary series: summing powers beats dense Horner.
            coeffs = f.coeffs[idx]
            return _term_sum(coeffs, z, idx + 1), _term_sum((idx + 1) * coeffs, z, idx) if derivative else None
        acc = dacc = np.zeros(z.shape, dtype=np.complex128)
        for a in f.coeffs[::-1]:
            if derivative:
                dacc = dacc * z + acc
            acc = acc * z + a
        return acc * z, acc + dacc * z if derivative else None
    if isinstance(f, Blaschke):
        out = f.c * z**f.m
        der = f.m * f.c * z ** (f.m - 1) if derivative else None
        for a in f.zeros:
            den = 1.0 - np.conj(a) * z
            if derivative:
                der = der * (z - a) / den + out * (1.0 - abs(a) ** 2) / den**2
            out = out * (z - a) / den
        return out, der
    if isinstance(f, MoebiusQuotient):
        (inner, der), den = _eval_array(f.inner, z, derivative), 1.0 - f.a * z
        out = inner / den
        return out, (der + f.a * out) / den if derivative else None
    if isinstance(f, GeometricPhi):
        s = z @ f.phi
        return s / (1.0 - s), (1.0 / (1.0 - s) ** 2)[..., None] * f.phi if derivative else None
    if isinstance(f, Composite):
        out, der = _eval_array(f.scalar, z @ f.phi, derivative)
        return out, der[..., None] * f.phi if derivative else None
    if isinstance(f, Scale):
        out, der = _eval_array(f.inner, z, derivative)
        return f.c * out, f.c * der if derivative else None
    if isinstance(f, _Pair):
        (lo, ld), (ro, rd) = _eval_array(f.left, z, derivative), _eval_array(f.right, z, derivative)
        if isinstance(f, Sum):
            return lo + ro, ld + rd if derivative else None
        if not derivative:
            return lo * ro, None
        # Over a space F′ has one more axis than F.
        axes = (...,) + (None,) * (ld.ndim - lo.ndim)
        return lo * ro, ld * ro[axes] + lo[axes] * rd
    raise InvalidInputError(f"{type(f).__name__} is not a function of a known kind")


def _term_sum(coeffs: np.ndarray, z: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Σ cⱼ·z^eⱼ of a lacunary series' terms at each entry of z, along a
    last axis that starts with a +0 term.  Coefficient first, each product
    takes numpy's vector loop, as the scalar-times-array product of one term
    did: the zero term keeps the axis longer than 1, where one-element
    operands would take a scalar loop that rounds differently on CPUs with
    fused multiply-add.  Accumulating adds the terms one at a time, in order,
    from +0, so F and F′ get the roundings and signed zeros of the
    term-by-term sum, and the records their bits; a pairwise `sum` would not."""
    terms = np.zeros((*z.shape, powers.size + 1), dtype=np.complex128)
    np.power(z[..., None], powers, out=terms[..., 1:])
    np.multiply(np.concatenate(([0.0], coeffs)), terms, out=terms)
    return np.add.accumulate(terms, axis=-1)[..., -1]


def amplify(f: HoloFunction, x) -> np.ndarray:
    """Apply f entrywise to a matrix in the open unit ball of its domain.

    Disk functions take a complex matrix with operator norm < 1; functional
    composites take an OpSpaceMatrix with matrix norm < 1 and go through the
    scalar image (φ(x_ij)).
    """
    space = f.domain_space
    if space is None:
        z = matcore.as_matrix(x)
        nrm = matcore.operator_norm(z)
        if nrm >= 1.0:
            raise DomainError(f"matrix argument must have operator norm < 1, got {nrm}")
        return _eval_array(f, z, False)[0]
    if not isinstance(x, OpSpaceMatrix) or not same_space(x.space, space):
        raise InvalidInputError("argument must be an OpSpaceMatrix over the function's domain space")
    nrm = matrix_norm(x)
    if nrm >= 1.0:
        raise DomainError(f"matrix argument must have matrix norm < 1, got {nrm}")
    return _eval_array(f, x.entries, False)[0]


# ---------------------------------------------------------------------------
# Taylor coefficients


def _exact(values) -> tuple:
    """A complex polynomial as exact (real, imaginary) arrays of Fractions."""
    z = np.asarray(values, dtype=np.complex128).reshape(-1)
    return tuple(np.array([Fraction(x) for x in part], dtype=object) for part in (z.real, z.imag))


def _mul(p: tuple, q: tuple) -> tuple:
    (pr, pi), (qr, qi) = p, q
    return np.convolve(pr, qr) - np.convolve(pi, qi), np.convolve(pr, qi) + np.convolve(pi, qr)


def _add(p: tuple, q: tuple) -> tuple:
    n = max(p[0].size, q[0].size)
    pad = lambda a: np.concatenate([a, np.full(n - a.size, Fraction(0), dtype=object)])
    return tuple(pad(a) + pad(b) for a, b in zip(p, q))


def _exact_rational(f: HoloFunction):
    """(p, poles) with f(z) = p(z) / Π_b (1 − b·z), p held exactly by `_exact`.

    The one place that knows each disk variant's rational form.  Poles are
    kept with multiplicity and never cancelled against the numerator.
    """
    if isinstance(f, PowerSeries):
        return _exact(np.concatenate([[0.0], f.coeffs])), []
    if isinstance(f, Blaschke):
        p = _exact(np.concatenate([np.zeros(f.m), [f.c]]))
        for a in f.zeros:
            p = _mul(p, _exact([-a, 1.0]))
        return p, list(np.conj(f.zeros))
    if isinstance(f, MoebiusQuotient):
        p, poles = _exact_rational(f.inner)
        return p, poles + [f.a]
    if isinstance(f, _Pair):
        (lp, lb), (rp, rb) = _exact_rational(f.left), _exact_rational(f.right)
        if isinstance(f, Product):
            return _mul(lp, rp), lb + rb
        # Common denominator: each numerator times the other side's pole factors.
        for b in lb:
            rp = _mul(rp, _exact([1.0, -b]))
        for b in rb:
            lp = _mul(lp, _exact([1.0, -b]))
        return _add(lp, rp), lb + rb
    if isinstance(f, Scale):
        p, poles = _exact_rational(f.inner)
        return _mul(_exact([f.c]), p), poles
    raise InvalidInputError(f"{type(f).__name__} is not a disk-domain function")


def blaschke_truncation(zeros: np.ndarray) -> int:
    """Degree past which the slowest pole's geometric terms, max|b|^K, fall
    below 2^-53, clamped to [_MIN_TRUNCATION, _MAX_TRUNCATION]."""
    peak = float(np.max(np.abs(zeros)))
    k = math.ceil(53 * math.log(2) / -math.log(peak)) if peak > 0.0 else 0
    return min(max(k, _MIN_TRUNCATION), _MAX_TRUNCATION)


def taylor_coefficients(f: HoloFunction, truncation: int) -> TaylorCoeffs:
    """Coefficients a_1..a_K of the expansion at 0, from the rational form.

    f = p/Π(1 − b·z) (`_exact_rational`; a power series is p itself, with no poles)
    and p, rounded once, is convolved with each pole's geometric series.  The
    majorant Σ|p_k|z^k / Π(1 − |b|·z) dominates the series coefficientwise and
    sums to E = Σ|p_k| / Π(1 − |b|), so with S_K the sum of its coefficients up
    to degree K, Σ_{n>K}|a_n| <= E − S_K; the tail bound adds γ_N·E for the
    rounding, so Σ|coeffs| + tail_bound >= Σ_{n>=1}|a_n| outright.
    """
    if f.domain_space is not None:
        raise InvalidInputError("Taylor extraction needs a disk-domain function")
    k = matcore.as_int(truncation, "truncation")
    if not 1 <= k <= _MAX_TRUNCATION:
        raise InvalidInputError(f"truncation must lie in [1, {_MAX_TRUNCATION}], got {k}")
    (re, im), poles = _exact_rational(f)
    p, poles = (re + 1j * im).astype(np.complex128), np.array(poles, dtype=np.complex128)
    coeffs = np.zeros(k + 1, dtype=np.complex128)
    coeffs[: min(k + 1, p.size)] = p[: k + 1]
    majorant = np.abs(coeffs)
    geometric = lambda b: np.cumprod(np.concatenate([[1.0], np.full(k, b)]))  # 1, b, ..., b^K
    for b in poles:
        coeffs = np.convolve(coeffs, geometric(b))[: k + 1]
        majorant = np.convolve(majorant, geometric(abs(b)))[: k + 1]
    radii = np.abs(poles)
    e = float(np.sum(np.abs(p)) / np.prod(1.0 - radii))
    # Rounding, in units u = 2^-53 measured against the majorant (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1, §3.6).
    # Rounding p costs 1; per pole, the cumprod <= 3K (complex products) and
    # the convolution <= 2K + 3, so each coefficient is off by <= γ_{1+P(5K+3)}
    # times its majorant coefficient, and the errors sum to <= that times S_K
    # <= E.  S_K costs <= P(3K+1) + K + 1 more, summing |coeffs| in the caller
    # K + 1, E len(p) + 2P + 2 + Σ 1/(1 − |b|) (rounded |b| seen through
    # 1 − |b|), the last subtraction and additions 3: N below exceeds it all.
    n = 8 * (len(poles) + 1) * (k + 1) + p.size + float(np.sum(1.0 / (1.0 - radii)))
    u = 2.0**-53
    tail = (e - float(np.sum(majorant))) + n * u / (1.0 - n * u) * e
    return TaylorCoeffs(coeffs[1:], tail)
