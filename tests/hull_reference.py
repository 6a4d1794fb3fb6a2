"""Hull points drawn one sample at a time: the reference that the stacked
sampler of `mconvex.hull_norm_check` must match bit for bit, and the way
tests draw a random point of a matrix set's hull.  Not a test module."""

import numpy as np

from cbnorm_lab import matcore
from cbnorm_lab.mconvex import HullRepresentation, HullTerm


def _inv_sqrt(s):
    vals, vecs = np.linalg.eigh(s + 1e-12 * np.eye(s.shape[0]))
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def reference_representation(k, n, rng):
    """Gaussian α, β for every generator, drawn and normalized into the
    constraint set on their own."""
    alphas, betas = [], []
    for gen in k.generators:
        kk = gen.level
        alphas.append(rng.standard_normal((n, kk)) + 1j * rng.standard_normal((n, kk)))
        betas.append(rng.standard_normal((kk, n)) + 1j * rng.standard_normal((kk, n)))
    row = sum(a @ a.conj().T for a in alphas)
    col = sum(b.conj().T @ b for b in betas)
    left = _inv_sqrt(row)
    right = _inv_sqrt(col)
    alphas = [left @ a for a in alphas]
    betas = [b @ right for b in betas]
    excess_row = matcore.operator_norm(sum(a @ a.conj().T for a in alphas))
    excess_col = matcore.operator_norm(sum(b.conj().T @ b for b in betas))
    if excess_row > 1.0:
        alphas = [a / np.sqrt(excess_row) for a in alphas]
    if excess_col > 1.0:
        betas = [b / np.sqrt(excess_col) for b in betas]
    terms = tuple(HullTerm(a, i, b) for i, (a, b) in enumerate(zip(alphas, betas)))
    return HullRepresentation(terms=terms, target_level=n)
