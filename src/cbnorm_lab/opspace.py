"""Concrete finite-dimensional operator spaces.

A space is given by a linearly independent family of N×N basis matrices; a
level-m matrix over the space is an m×m grid of coefficient vectors, and all
matrix-level norms are computed on the realized mN×mN block matrix.  This is
an exactly computable model: every norm in the package bottoms out here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import matcore
from .errors import InvalidInputError

# Smallest singular value of the d×N² coordinate matrix must exceed this for
# the basis to count as linearly independent.
_INDEPENDENCE_TOL = 1e-10

# Largest builder parameter: the basis of M_k takes 16·k⁴ bytes, the others 16·n³.
MAX_SPACE_PARAM = 32


@dataclass(frozen=True, eq=False)
class ConcreteOperatorSpace:
    """A d-dimensional subspace of M_N spanned by explicit basis matrices;
    a given basis is proved independent by an SVD of its coordinates."""

    basis: np.ndarray  # (d, N, N) complex
    # Set by `builder_space` on the spaces it builds.
    kind = "custom"
    param = None

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.complex128)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2] or basis.shape[0] < 1:
            raise InvalidInputError("basis must be a (d, N, N) array of square matrices")
        if not np.all(np.isfinite(basis)):
            raise InvalidInputError("basis entries must be finite")
        coords = basis.reshape(basis.shape[0], -1)
        smin = np.linalg.svd(coords, compute_uv=False)[-1] if coords.shape[0] <= coords.shape[1] else 0.0
        if smin <= _INDEPENDENCE_TOL:
            raise InvalidInputError("basis matrices are not linearly independent")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient(self) -> int:
        return self.basis.shape[1]


def same_space(a: ConcreteOperatorSpace, b: ConcreteOperatorSpace) -> bool:
    return a is b or (a.basis.shape == b.basis.shape and np.array_equal(a.basis, b.basis))


@dataclass(frozen=True, eq=False)
class OpSpaceMatrix:
    """An m×m grid of space elements (a point of the level-m matrix space)."""

    space: ConcreteOperatorSpace
    entries: np.ndarray  # (m, m, d) complex

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.ndim != 3 or e.shape[0] != e.shape[1] or e.shape[2] != self.space.dim:
            raise InvalidInputError(
                f"entries must have shape (m, m, {self.space.dim}), got {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise InvalidInputError("entries must be finite")
        object.__setattr__(self, "entries", e)

    @property
    def level(self) -> int:
        return self.entries.shape[0]


def block_matrix(entries: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The mN×mN block matrix whose (i, j) block is Σ_k entries[i,j,k]·B_k,
    from raw (m, m, d) and (d, N, N) arrays; a (T, m, m, d) stack of entries
    gives a (T, mN, mN) stack, each matrix with the bits it has alone."""
    stack = entries.shape[:-3]
    m, _, d = entries.shape[-3:]
    n = basis.shape[1]
    blocks = (entries.reshape(stack + (m * m, d)) @ basis.reshape(d, n * n)).reshape(stack + (m, m, n, n))
    return blocks.swapaxes(-3, -2).reshape(stack + (m * n, m * n))


def norm_gradient(realized: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (m, m, d) grid G with d‖block_matrix(E, basis)‖ = Re Σ G·dE, given
    the realized matrix block_matrix(E, basis): G_ijk = u_i*·B_k·v_j over the
    N-blocks of its top singular pair (u, v), exact where σ₁ is simple."""
    _, u, v = matcore.top_singular_pair(realized)
    n = basis.shape[1]
    return np.einsum("ka,tab,lb->klt", u.reshape(-1, n).conj(), basis, v.reshape(-1, n))


def realize(x: OpSpaceMatrix) -> np.ndarray:
    """The realized block matrix of x (see block_matrix)."""
    return block_matrix(x.entries, x.space.basis)


def matrix_norm(x: OpSpaceMatrix) -> float:
    """Operator norm of the realization; these norms satisfy Ruan's axioms."""
    return matcore.operator_norm(realize(x))


def compression_pair(alpha, beta, n: int, m: int):
    """α and β as complex matrices, checked to compress a level-m point to
    level n: α is n×m and β is m×n."""
    alpha, beta = matcore.as_matrix(alpha), matcore.as_matrix(beta)
    if alpha.shape != (n, m) or beta.shape != (m, n):
        raise InvalidInputError(
            f"compression shapes must be ({n}, {m}) and ({m}, {n}), got {alpha.shape} and {beta.shape}"
        )
    return alpha, beta


def compress(alpha, x: OpSpaceMatrix, beta) -> OpSpaceMatrix:
    """Two-sided scalar compression α·x·β, computed on coefficient grids.

    alpha is l×m and beta is m×l where m is the level of x; the result lives
    at level l.  Realizing the result equals (α⊗I_N)·realize(x)·(β⊗I_N).
    """
    alpha = matcore.as_matrix(alpha)
    alpha, beta = compression_pair(alpha, beta, alpha.shape[0], x.level)
    out = np.einsum("pr,rsd,sq->pqd", alpha, x.entries, beta)
    return OpSpaceMatrix(x.space, out)


def direct_sum_matrices(x: OpSpaceMatrix, y: OpSpaceMatrix) -> OpSpaceMatrix:
    """Block-diagonal x ⊕ y at level level(x)+level(y)."""
    if not same_space(x.space, y.space):
        raise InvalidInputError("direct sum needs matrices over the same space")
    m, n, d = x.level, y.level, x.space.dim
    out = np.zeros((m + n, m + n, d), dtype=np.complex128)
    out[:m, :m] = x.entries
    out[m:, m:] = y.entries
    return OpSpaceMatrix(x.space, out)


# ---------------------------------------------------------------------------
# Builders


def _trace_norm(w: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(w, compute_uv=False)))


def _phases(phi: np.ndarray, n: int) -> np.ndarray:
    """conj(φ_k)/|φ_k|, and 1 where φ_k = 0; taken through the angle, so a
    subnormal φ_k still gets a phase of modulus 1."""
    return np.where(phi == 0.0, 1.0 + 0.0j, np.exp(-1j * np.angle(phi)))


def _two_norm(phi: np.ndarray, n: int) -> float:
    """‖φ‖₂, with φ scaled by the power of two of its largest modulus so that
    no square underflows.  The scaling is exact, so a φ in the normal range
    gets the bits of np.linalg.norm(φ)."""
    _, e = np.frexp(np.max(np.abs(phi)))
    parts = np.ldexp(np.ascontiguousarray(phi).view(np.float64), -e)
    return float(np.ldexp(np.linalg.norm(parts.view(np.complex128)), e))


def _unit_vector(phi: np.ndarray, n: int) -> np.ndarray:
    """φ̄/‖φ‖₂ of each functional, with φ first scaled by its largest
    modulus so that no square underflows.  One functional's norm is
    `np.linalg.norm` of the vector, whose bits a norm along the last axis
    of a stack does not share."""
    if phi.ndim == 1:
        psi = np.conj(phi / np.max(np.abs(phi)))
        return psi / np.linalg.norm(psi)
    psi = np.conj(phi / np.max(np.abs(phi), axis=-1, keepdims=True))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _unitary_factor(phi: np.ndarray, n: int) -> np.ndarray:
    """conj(U·V*) from the SVD U·Σ·V* of each functional as an n×n matrix.
    One functional is one matrix, as a stack of one would take the SVD's
    slower batched loop, and is scaled by its computed norm: rounding leaves
    U·V* a few ulps off unitary.  A stack of functionals takes one stacked
    SVD, each matrix with the bits it has alone, and no second one to scale
    it: its units stay those few ulps off norm 1, well inside the 1e-6 of
    room that RADIUS_CAP leaves."""
    u, _, vh = np.linalg.svd(phi.reshape(phi.shape[:-1] + (n, n)))
    w = u @ vh
    if phi.ndim == 1:
        w = w / matcore.operator_norms(w, 2)[..., None, None]
    return np.conj(w).reshape(phi.shape)


class _Kind(NamedTuple):
    """A builder kind: the name of its size n, the positions in M_n of the
    matrix units spanning it, the dual norm of a coefficient functional φ
    (the trace norm of the W that puts φ on those units), and a norming
    element of a nonzero φ: a unit-norm e with φ(e) = ‖φ‖."""

    size: str
    positions: Callable
    dual_norm: Callable
    norming: Callable


_KINDS = {
    "scalar": _Kind("n", lambda n: [(0, 0)], lambda phi, n: float(abs(phi[0])), _phases),
    "matrix": _Kind(
        "k",
        lambda n: [(i, j) for i in range(n) for j in range(n)],
        lambda phi, n: _trace_norm(phi.reshape(n, n)),
        _unitary_factor,
    ),
    "row": _Kind("n", lambda n: [(0, j) for j in range(n)], _two_norm, _unit_vector),
    "column": _Kind("n", lambda n: [(j, 0) for j in range(n)], _two_norm, _unit_vector),
    "min_linf": _Kind(
        "d", lambda n: [(j, j) for j in range(n)], lambda phi, n: float(np.sum(np.abs(phi))), _phases
    ),
}


def builder_space(kind: str, n: int) -> ConcreteOperatorSpace:
    """The builder space of a kind and size, spanned by matrix units of M_n."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidInputError(f"unknown builder space kind {kind!r}")
    size, positions = _KINDS[kind].size, _KINDS[kind].positions
    n = matcore.as_int(n, size)
    if kind == "scalar" and n != 1:
        raise InvalidInputError(f"a scalar space has param 1, got {n!r}")
    if not 1 <= n <= MAX_SPACE_PARAM:
        raise InvalidInputError(f"{size} must lie in [1, {MAX_SPACE_PARAM}], got {n}")
    units = positions(n)
    basis = np.zeros((len(units), n, n), dtype=np.complex128)
    for k, (i, j) in enumerate(units):
        basis[k, i, j] = 1.0
    # Distinct matrix units are independent by construction, so the space
    # skips `__post_init__` and its d×N² SVD.
    space = object.__new__(ConcreteOperatorSpace)
    for name, value in (("basis", basis), ("kind", kind), ("param", n)):
        object.__setattr__(space, name, value)
    return space


def space_scalar() -> ConcreteOperatorSpace:
    """The scalar space: one basis matrix [1] inside M_1."""
    return builder_space("scalar", 1)


def space_mk(k: int) -> ConcreteOperatorSpace:
    """All of M_k, with the matrix units as basis (row-major order)."""
    return builder_space("matrix", k)


def space_row(n: int) -> ConcreteOperatorSpace:
    """Row Hilbertian space: first-row matrix units of M_n."""
    return builder_space("row", n)


def space_column(n: int) -> ConcreteOperatorSpace:
    """Column Hilbertian space: first-column matrix units of M_n."""
    return builder_space("column", n)


def space_min_linf(d: int) -> ConcreteOperatorSpace:
    """Minimal quantization of ℓ∞^d: diagonal matrix units of M_d."""
    return builder_space("min_linf", d)


def closed_form_dual_norm(space: ConcreteOperatorSpace, phi) -> float:
    """Dual norm of a coefficient functional: exact on builder spaces, an
    upper bound on custom ones.

    φ extends to M_N with the same norm (Hahn–Banach), and M_N's dual is the
    trace class under ⟨X, W⟩ = Σ X_ij·W_ij, so every W with ⟨B_k, W⟩ = φ_k
    has ‖φ‖ <= ‖W‖₁, with equality for some W.  On a builder space the W
    that puts φ on the basis's matrix units attains it (`_KINDS`): |φ|,
    Σ|φ_k|, ‖φ‖₂, or the trace norm of φ as a k×k matrix.  A custom space
    gets the least-squares W (`_extension_norm`).
    """
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (space.dim,):
        raise InvalidInputError(f"functional must have {space.dim} coefficients")
    if space.kind in _KINDS:
        return _KINDS[space.kind].dual_norm(phi, space.param)
    return _extension_norm(space, phi)


def norming_element(space: ConcreteOperatorSpace, phi: np.ndarray):
    """Coefficients (d,) of a point e of the space with matrix norm 1 and
    φ(e) = Σ φ_k·e_k = ‖φ‖, for φ given as d complex coefficients, or the
    (T, d) norming elements of a (T, d) stack of functionals; None on a
    custom space, which has no closed form for one.

    On a builder space `_KINDS` gives e in closed form: the phases of φ̄ on
    the scalar and min-ℓ∞ spaces, φ̄/‖φ‖₂ on the row and column spaces, and
    conj(U·V*) on M_k (one stacked SVD for a stack).  Every unit point
    norms the zero functional; it gets the first basis element.
    """
    if space.kind not in _KINDS:
        return None
    norming = _KINDS[space.kind].norming
    if phi.ndim == 1:
        return norming(phi, space.param) if np.any(phi) else np.eye(1, space.dim, dtype=np.complex128)[0]
    nonzero = np.any(phi, axis=-1)
    if nonzero.all():
        return norming(phi, space.param)
    out = np.zeros(phi.shape, dtype=np.complex128)
    out[..., 0] = 1.0
    if nonzero.any():
        out[nonzero] = norming(phi[nonzero], space.param)
    return out


def _extension_norm(space: ConcreteOperatorSpace, phi: np.ndarray) -> float:
    """‖W‖₁ of the least-squares W with ⟨B_k, W⟩ = φ_k: an upper bound for ‖φ‖."""
    w = np.linalg.lstsq(space.basis.reshape(space.dim, -1), phi, rcond=None)[0]
    return _trace_norm(w.reshape(space.ambient, space.ambient))


# ---------------------------------------------------------------------------
# Sampling


def _random_matrix_ball(rng, space: ConcreteOperatorSpace, level: int, radius) -> np.ndarray:
    """The (level, level, d) entries of a complex-Gaussian grid over the
    space, rescaled to matrix norm exactly `radius`; for an array of k radii,
    a (k, level, level, d) stack of such grids, row i at radius i.

    One `standard_normal((k, 2, level, level, d))` call draws the k grids,
    so row i holds the numbers that the i-th of k one-grid draws takes
    (`matcore.gaussian`), and its norm has the bits it has alone.  A zero
    grid is drawn again, one grid at a time, after the stack, until its
    norm is positive; a single grid is thus the k = 1 case."""
    radii = np.asarray(radius, dtype=np.float64)
    draw = rng.standard_normal((radii.size, 2, level, level, space.dim))
    grids = draw[:, 0] + 1j * draw[:, 1]
    norms = matcore.operator_norms(block_matrix(grids, space.basis))
    for i in np.flatnonzero(norms == 0.0):
        while not norms[i] > 0.0:
            grids[i] = matcore.gaussian(rng, grids.shape[1:])
            norms[i] = matcore.operator_norm(block_matrix(grids[i], space.basis))
    points = grids * (radii.reshape(-1) / norms)[:, None, None, None]
    return points.reshape(radii.shape + points.shape[1:])


def sample_matrix_ball(space: ConcreteOperatorSpace, level: int, radius: float, seed) -> OpSpaceMatrix:
    """Deterministic level-`level` matrix over the space of norm exactly `radius`."""
    level = matcore.check_level(level)
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise InvalidInputError(f"radius must lie in (0, 1), got {radius}")
    return OpSpaceMatrix(space, _random_matrix_ball(matcore.derive_rng(seed), space, level, radius))

