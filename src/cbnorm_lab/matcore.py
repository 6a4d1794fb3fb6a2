"""Dense complex linear algebra: spectral norms, direct sums, Schur products,
and sampling/projection for the operator-norm unit ball.

All functions are pure; randomness is always owned by the caller through an
explicit 64-bit seed, so identical seeds and call sequences reproduce
identical outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_MAX_SEED = 2**64

# Largest matrix level a search or a pairing may build; 8 is the largest in use.
MAX_LEVEL = 64


def check_seed(seed) -> int:
    """Validate a 64-bit unsigned RNG seed and return it as a plain int."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidInputError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise InvalidInputError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def as_int(value, name: str) -> int:
    """A count, size or level: an int or an integral float, as the config
    schema's `integer` accepts.  Bools, strings and fractions are rejected
    rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def derive_rng(seed, *stream) -> np.random.Generator:
    """Deterministic generator for (seed, *stream); each call site owns its own."""
    return np.random.default_rng([check_seed(seed), *(int(s) for s in stream)])


def as_matrix(a, ndim: int = 2) -> np.ndarray:
    """Coerce input to a complex128 matrix (ndim 2) or stack of matrices
    (ndim 3), rejecting non-finite entries."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"not a complex matrix: {exc}") from None
    if m.size and not np.isfinite(m).all():
        raise InvalidInputError("matrix entries must be finite")
    if m.ndim != ndim:
        raise InvalidInputError(f"expected a {ndim}-D array, got ndim={m.ndim}")
    return m


def operator_norms(stack, ndim: int = 3) -> np.ndarray:
    """Largest singular value of each matrix of a (k, p, q) stack, or of one
    (p, q) matrix when ndim is 2, accurate to ~1e-10 relative.  The SVD gufunc
    decomposes each matrix on its own, so a value has the same bits whatever
    else shares the stack."""
    s = as_matrix(stack, ndim)
    return np.linalg.svd(s, compute_uv=False)[..., 0] if s.size else np.zeros(s.shape[:-2])


def operator_norm(a) -> float:
    """Largest singular value of one matrix: `operator_norms` with ndim 2.

    A single matrix goes to the SVD as it is: wrapped as a stack of one, it
    would take the gufunc's batched loop, which costs more per call than
    the SVD of a small matrix."""
    return float(operator_norms(a, ndim=2))


def top_singular_pair(a):
    """(σ₁, u, v) with A·v = σ₁·u, u and v unit; where σ₁ is simple, dσ₁ = Re(u*·dA·v)."""
    u, s, vh = np.linalg.svd(as_matrix(a))
    return float(s[0]), u[:, 0], vh[0].conj()


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal sum A ⊕ B; its norm is max(‖A‖, ‖B‖)."""
    a, b = as_matrix(a), as_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def schur_product(a, b) -> np.ndarray:
    """Entrywise product of two same-shaped matrices.

    Its operator norm never exceeds the product of the factors' norms.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch for Schur product: {a.shape} vs {b.shape}")
    return a * b


def _random_ball(rng: np.random.Generator, m: int, radius: float) -> np.ndarray:
    """Complex-Gaussian m×m draw rescaled to spectral norm exactly `radius`."""
    while True:
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        nrm = operator_norm(g)
        if nrm > 0.0:
            return g * (radius / nrm)


def sample_ball(m: int, radius: float, seed) -> np.ndarray:
    """Deterministic m×m matrix of operator norm exactly `radius` ∈ (0, 1).

    Gaussian draw followed by exact rescaling, so the boundary sphere of any
    requested radius is reachable (no rejection).
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidInputError(f"level must be a positive integer, got {m!r}")
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise InvalidInputError(f"radius must lie in (0, 1), got {radius}")
    return _random_ball(derive_rng(seed), int(m), radius)


def project_ball(a, r: float) -> np.ndarray:
    """Clip singular values at r; points already inside the ball are fixed."""
    m = as_matrix(a)
    r = float(r)
    if not r > 0.0:
        raise InvalidInputError(f"projection radius must be positive, got {r}")
    if m.size == 0 or operator_norm(m) <= r:
        return m
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u * np.minimum(s, r)) @ vh
