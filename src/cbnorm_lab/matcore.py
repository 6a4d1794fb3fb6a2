"""Dense complex linear algebra: spectral norms, Schur products, and
complex-Gaussian draws.

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
# Most objective evaluations a search may spend, and most trials a property
# check may run; a level-1 circle scan keeps 8 bytes per grid point, plus the
# points of its first chunk of at most 4096 (64 KiB for a disk function), so
# this caps its grid at 128 MiB.
MAX_BUDGET = 2**24
# Bytes of sampled stacks a property check evaluates at once (`trial_chunks`).
STACK_BYTES = 1 << 22


def check_seed(seed) -> int:
    """Validate a 64-bit unsigned RNG seed and return it as a plain int."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidInputError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise InvalidInputError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def as_int(value, name: str) -> int:
    """A count, size or level: an int or an integral float, as JSON may write
    one.  Bools, strings and fractions are rejected rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def check_count(value, name: str) -> int:
    """A positive count (a level bound; budgets and trials also pass
    `check_budget`)."""
    count = as_int(value, name)
    if count < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {count}")
    return count


def check_budget(value, name: str = "budget") -> int:
    """A search budget, or a property check's trials: a count of at most
    MAX_BUDGET, refused before anything is allocated or run."""
    budget = check_count(value, name)
    if budget > MAX_BUDGET:
        raise InvalidInputError(f"{name} must be at most {MAX_BUDGET}, got {value!r}")
    return budget


def check_level(value, name: str = "level") -> int:
    """A level a search, a pairing or a sample may build: an integer in
    [1, MAX_LEVEL]."""
    level = as_int(value, name)
    if not 1 <= level <= MAX_LEVEL:
        raise InvalidInputError(f"{name} must lie in [1, {MAX_LEVEL}], got {level}")
    return level


def derive_rng(seed, *stream) -> np.random.Generator:
    """Deterministic generator for (seed, *stream); each call site owns its own."""
    return np.random.default_rng([check_seed(seed), *(int(s) for s in stream)])


def trial_chunks(seed, trials: int, top: int, trial_bytes: int):
    """The trials of a sampled property check (`cbnorm.schwarz_check`,
    `mconvex.hull_norm_check`), in chunks of max(1, STACK_BYTES //
    trial_bytes) trials.  Each chunk's levels in [1, top] come in trial
    order from one `integers` call on `derive_rng(seed)`, and level m's
    draws from its own stream `derive_rng(seed, m)`, made once per call.
    Yields, per chunk, its levels and a (m, rows, stream) triple for each
    level m present, rows the indices of its level-m trials in trial order.
    The streams run on across chunks, so a check that draws each level's
    trials with one call and keeps each trial's bits does not depend on
    the chunk size."""
    chunk = max(1, STACK_BYTES // trial_bytes)
    level_rng, streams = derive_rng(seed), [derive_rng(seed, m) for m in range(1, top + 1)]
    for start in range(0, trials, chunk):
        levels = level_rng.integers(1, top + 1, size=min(chunk, trials - start))
        yield levels, [(m, rows, rng) for m, rng in enumerate(streams, 1) if (rows := np.flatnonzero(levels == m)).size]


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
    else shares the stack.  A 1×1 matrix z has σ₁ = |z|: a stack of them is
    `np.abs` of its entries, and reaches no SVD."""
    s = as_matrix(stack, ndim)
    if s.shape[-2:] == (1, 1):
        return np.abs(s[..., 0, 0])
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


def schur_product(a, b) -> np.ndarray:
    """Entrywise product of two same-shaped matrices.

    Its operator norm never exceeds the product of the factors' norms.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch for Schur product: {a.shape} vs {b.shape}")
    return a * b


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """A complex-Gaussian array: one `standard_normal` draw of twice the size,
    its first half the real parts and its second half the imaginary parts
    (the numbers that two draws of `shape` give, in that order)."""
    draw = rng.standard_normal((2, *shape))
    return draw[0] + 1j * draw[1]

