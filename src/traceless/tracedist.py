"""Distance from 1 to spans of self-adjoint commutators, and trace certificates.

For generators a_1..a_m the Hermitian elements c_i = a_i* a_i - a_i a_i*
span a real subspace of trace-free matrices.  ``commutator_distance``
projects 1 onto that span in the Frobenius (trace) inner product, then
polishes the coefficients by subgradient steps on the operator norm; the
reported operator-norm residual upper-bounds the distance from 1 to the
span of this particular family.

In a matrix algebra the normalized trace pins that distance at 1: every
span element x is trace-free, so ||1 - x|| >= |tr(1 - x)| / dim = 1.
``trace_certificate`` packages that functional.  Compressing the family to
a truncation interior removes the trace constraint and lets the residual
drop below 1, which is how the finite picture reflects algebras without
tracial states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cuntz import interior_indices, star_sums
from .errors import DimensionMismatch, EmptyFamily
from .linalg import Operator, frobenius_norm, op_norm

__all__ = [
    "CommutatorSpanFamily",
    "DistanceEstimate",
    "TraceCertificate",
    "commutator_span_family",
    "commutator_distance",
    "trace_certificate",
]

GRAM_REGULARIZATION = 1e-12


@dataclass(frozen=True)
class CommutatorSpanFamily:
    """Generators a_i together with the span elements c_i = a_i* a_i - a_i a_i*."""

    generators: tuple[Operator, ...]
    span_elements: tuple[Operator, ...]
    dim: int


@dataclass(frozen=True)
class DistanceEstimate:
    coefficients: tuple[float, ...]
    frobenius_residual: float
    opnorm_residual: float


def commutator_span_family(generators, dim: int | None = None) -> CommutatorSpanFamily:
    """Derive the span elements; ``dim`` is only needed for an empty family."""
    generators = tuple(generators)
    if not generators:
        if dim is None:
            raise EmptyFamily("empty family needs an explicit dimension")
        return CommutatorSpanFamily((), (), dim)
    d = generators[0].dim
    for a in generators:
        if a.dim != d:
            raise DimensionMismatch(f"dim {a.dim} vs {d}")
    span = []
    for a in generators:
        star, rng = star_sums((a,))
        span.append(star - rng)
    return CommutatorSpanFamily(generators, tuple(span), d)


def commutator_distance(
    family: CommutatorSpanFamily,
    polish_steps: int = 200,
    interior_mask: np.ndarray | None = None,
) -> DistanceEstimate:
    """Best found upper bound on dist(1, span{c_i}).

    Solves the Frobenius least-squares projection (Gram matrix regularized
    by 1e-12) and then runs ``polish_steps`` normalized subgradient steps of
    size 1/sqrt(step) on the operator-norm objective, keeping the best
    iterate.  Each iterate costs one SVD, whose top singular triple gives
    both its objective value and the next subgradient.  With
    ``interior_mask``, a bool vector of length ``family.dim``, the whole
    problem is compressed first to the block of the basis vectors it keeps.
    """
    span = [c.entries for c in family.span_elements]
    dim = family.dim
    if interior_mask is not None:
        keep = interior_indices(interior_mask, family.dim)
        dim = np.count_nonzero(keep)
        if dim == 0:
            raise DimensionMismatch("interior mask has empty range")
        span = [c[np.ix_(keep, keep)] for c in span]
    target = np.eye(dim, dtype=complex)
    if not span:
        return DistanceEstimate((), frobenius_norm(target), op_norm(target))

    m = len(span)
    gram = np.zeros((m, m))
    rhs = np.zeros(m)
    for j in range(m):
        rhs[j] = float(np.trace(span[j].conj().T @ target).real)
        for k in range(j, m):
            inner = float(np.trace(span[j].conj().T @ span[k]).real)
            gram[j, k] = inner
            gram[k, j] = inner
    coeffs = np.linalg.solve(gram + GRAM_REGULARIZATION * np.eye(m), rhs)

    def residual_of(t):
        res = target.copy()
        for j in range(m):
            res -= t[j] * span[j]
        return res

    t = coeffs
    residual = residual_of(t)
    frob = frobenius_norm(residual)
    best_t, best_op = t, math.inf
    for step in itertools.count(1):
        u, sigma, vh = np.linalg.svd(residual)
        if sigma[0] < best_op:
            best_t, best_op = t, float(sigma[0])
        if step > polish_steps:
            break
        top_u = u[:, 0]
        top_v = vh[0, :].conj()
        grad = np.array(
            [-float((top_u.conj() @ (span[j] @ top_v)).real) for j in range(m)]
        )
        norm_grad = float(np.linalg.norm(grad))
        if norm_grad < 1e-15:
            break
        t = t - (1.0 / math.sqrt(step)) * grad / norm_grad
        residual = residual_of(t)
    return DistanceEstimate(tuple(float(v) for v in best_t), frob, best_op)


class TraceCertificate:
    """The normalized matrix trace tau(x) = tr(x)/dim.

    A tracial state: tau(1) = 1, tau(xy) = tau(yx), tau(x*x) >= 0.  Its
    existence forces ||1 - x|| >= 1 for every trace-free x, the obstruction
    that witness construction runs into in any matrix algebra.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)

    def __call__(self, x) -> complex:
        entries = x.entries if isinstance(x, Operator) else np.asarray(x, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"expected dim {self.dim}, got {entries.shape}")
        return complex(np.trace(entries) / self.dim)

    def __repr__(self) -> str:
        return f"TraceCertificate(dim={self.dim})"


def trace_certificate(dim: int) -> TraceCertificate:
    return TraceCertificate(dim)
