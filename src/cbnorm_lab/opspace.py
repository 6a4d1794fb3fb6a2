"""Concrete finite-dimensional operator spaces.

A space is given by a linearly independent family of N×N basis matrices; a
level-m matrix over the space is an m×m grid of coefficient vectors, and all
matrix-level norms are computed on the realized mN×mN block matrix.  This is
an exactly computable model: every norm in the package bottoms out here.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """A d-dimensional subspace of M_N spanned by explicit basis matrices."""

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


def block_adjoint(u: np.ndarray, v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (m, m, d) grid u_i*·B_k·v_j of the N-blocks of mN-vectors u and v:
    Re(u*·block_matrix(dE, basis)·v) = Re Σ grid·dE, so at the top singular
    pair (u, v) it gives the block norm's gradient in the entries."""
    n = basis.shape[1]
    return np.einsum("ka,tab,lb->klt", u.reshape(-1, n).conj(), basis, v.reshape(-1, n))


def realize(x: OpSpaceMatrix) -> np.ndarray:
    """The realized block matrix of x (see block_matrix)."""
    return block_matrix(x.entries, x.space.basis)


def matrix_norm(x: OpSpaceMatrix) -> float:
    """Operator norm of the realization; these norms satisfy Ruan's axioms."""
    return matcore.operator_norm(realize(x))


def compress(alpha, x: OpSpaceMatrix, beta) -> OpSpaceMatrix:
    """Two-sided scalar compression α·x·β, computed on coefficient grids.

    alpha is l×m and beta is m×l where m is the level of x; the result lives
    at level l.  Realizing the result equals (α⊗I_N)·realize(x)·(β⊗I_N).
    """
    alpha = matcore.as_matrix(alpha)
    beta = matcore.as_matrix(beta)
    m = x.level
    if alpha.ndim != 2 or alpha.shape[1] != m or beta.shape[0] != m or beta.shape[1] != alpha.shape[0]:
        raise InvalidInputError(
            f"compression shapes must be (l, {m}) and ({m}, l), got {alpha.shape} and {beta.shape}"
        )
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


# Each builder kind: the name of its size n, the positions in M_n of the
# matrix units spanning it, and the dual norm of a coefficient functional φ,
# the trace norm of the W that puts φ on those units.
_KINDS = {
    "scalar": ("n", lambda n: [(0, 0)], lambda phi, n: float(abs(phi[0]))),
    "matrix": (
        "k",
        lambda n: [(i, j) for i in range(n) for j in range(n)],
        lambda phi, n: _trace_norm(phi.reshape(n, n)),
    ),
    "row": ("n", lambda n: [(0, j) for j in range(n)], lambda phi, n: float(np.linalg.norm(phi))),
    "column": ("n", lambda n: [(j, 0) for j in range(n)], lambda phi, n: float(np.linalg.norm(phi))),
    "min_linf": ("d", lambda n: [(j, j) for j in range(n)], lambda phi, n: float(np.sum(np.abs(phi)))),
}


def builder_space(kind: str, n: int) -> ConcreteOperatorSpace:
    """The builder space of a kind and size, spanned by matrix units of M_n."""
    size, positions, _ = _KINDS[kind]
    if kind == "scalar" and n != 1:
        raise InvalidInputError(f"a scalar space has param 1, got {n!r}")
    if not 1 <= n <= MAX_SPACE_PARAM:
        raise InvalidInputError(f"{size} must lie in [1, {MAX_SPACE_PARAM}], got {n}")
    units = positions(n)
    basis = np.zeros((len(units), n, n), dtype=np.complex128)
    for k, (i, j) in enumerate(units):
        basis[k, i, j] = 1.0
    space = ConcreteOperatorSpace(basis)
    object.__setattr__(space, "kind", kind)
    object.__setattr__(space, "param", n)
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
        return _KINDS[space.kind][2](phi, space.param)
    return _extension_norm(space, phi)


def _extension_norm(space: ConcreteOperatorSpace, phi: np.ndarray) -> float:
    """‖W‖₁ of the least-squares W with ⟨B_k, W⟩ = φ_k: an upper bound for ‖φ‖."""
    w = np.linalg.lstsq(space.basis.reshape(space.dim, -1), phi, rcond=None)[0]
    return _trace_norm(w.reshape(space.ambient, space.ambient))


# ---------------------------------------------------------------------------
# Sampling


def _random_matrix_ball(rng, space: ConcreteOperatorSpace, level: int, radius: float) -> OpSpaceMatrix:
    while True:
        g = rng.standard_normal((level, level, space.dim)) + 1j * rng.standard_normal(
            (level, level, space.dim)
        )
        x = OpSpaceMatrix(space, g)
        nrm = matrix_norm(x)
        if nrm > 0.0:
            return OpSpaceMatrix(space, g * (radius / nrm))


def sample_matrix_ball(space: ConcreteOperatorSpace, level: int, radius: float, seed) -> OpSpaceMatrix:
    """Deterministic level-`level` matrix over the space of norm exactly `radius`."""
    level = matcore.check_count(level, "level")
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise InvalidInputError(f"radius must lie in (0, 1), got {radius}")
    return _random_matrix_ball(matcore.derive_rng(seed), space, level, radius)

