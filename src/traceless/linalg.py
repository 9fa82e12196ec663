"""Complex matrix primitives: products, norms, adjoints, spectral tools.

Everything downstream (witness checks, the decomposition engine, distance
estimates) consumes operators through this module.  Operators are immutable
square complex matrices, optionally tagged with word labels when they come
from a truncated Fock representation.  Every product goes through one
kernel, ``_accumulate``, which multiplies a weighted partial map
(``Operator.partial_map``) by a gather or a scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPositive

__all__ = [
    "Operator",
    "PositivityReport",
    "op_norm",
    "frobenius_norm",
    "psd_sqrt",
    "positivity_check",
    "identity",
    "zero",
]


@dataclass(frozen=True, eq=False)
class Operator:
    """An element of a matrix algebra: a dim x dim complex matrix.

    ``basis_labels``, when present, names the basis vectors (words over
    generator digits, "" for the vacuum) and must contain ``dim`` distinct
    entries.
    """

    entries: np.ndarray
    basis_labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"operator entries must be square, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        if self.basis_labels is not None:
            labels = tuple(self.basis_labels)
            if len(labels) != arr.shape[0]:
                raise DimensionMismatch(
                    f"{len(labels)} labels for dimension {arr.shape[0]}"
                )
            if len(set(labels)) != len(labels):
                raise ValueError("basis labels must be distinct")
            object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def partial_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The operator as a weighted partial map sum_k v_k |r_k><c_k|.

        Returns read-only arrays (rows, cols, vals) with rows strictly
        increasing, so that entries[rows, cols] = vals and every other entry
        is zero, or None when some row holds two or more nonzeros.  Shifts,
        evaluated normal monomials and diagonal operators all have this form.
        """
        return _partial_map(self.entries)

    def adjoint(self) -> "Operator":
        return Operator(self.entries.conj().T, self.basis_labels)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def _coerce(self, other) -> np.ndarray:
        if not isinstance(other, Operator):
            raise TypeError(f"Operator arithmetic needs an Operator, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        return other.entries

    def __matmul__(self, other) -> "Operator":
        """The product (``_accumulate``), with the left factor's labels."""
        self._coerce(other)
        total = np.zeros((self.dim, self.dim), dtype=complex)
        _accumulate(total, np.add, self, other)
        return Operator(total, self.basis_labels)

    def __add__(self, other) -> "Operator":
        return Operator(self.entries + self._coerce(other), self.basis_labels)

    def __sub__(self, other) -> "Operator":
        return Operator(self.entries - self._coerce(other), self.basis_labels)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.entries * complex(scalar), self.basis_labels)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.entries, self.basis_labels)

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


@dataclass(frozen=True)
class PositivityReport:
    is_hermitian: bool
    min_eig: float
    is_psd: bool


def identity(dim: int, basis_labels: tuple[str, ...] | None = None) -> Operator:
    return Operator(np.eye(dim, dtype=complex), basis_labels)


def zero(dim: int, basis_labels: tuple[str, ...] | None = None) -> Operator:
    return Operator(np.zeros((dim, dim), dtype=complex), basis_labels)


def _entries(x) -> np.ndarray:
    return x.entries if isinstance(x, Operator) else np.asarray(x, dtype=complex)


def _partial_map(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``Operator.partial_map`` of a matrix, square or not."""
    nonzero = a != 0
    if np.any(np.count_nonzero(nonzero, axis=1) > 1):
        return None
    rows, cols = np.nonzero(nonzero)
    form = rows, cols, a[rows, cols]
    for arr in form:
        arr.flags.writeable = False
    return form


def _distinct(cols: np.ndarray) -> bool:
    # np.unique would import numpy.ma, which stays resident
    return int(np.bincount(cols).max(initial=0)) <= 1


def _accumulate(total: np.ndarray, ufunc, left: Operator, right: Operator) -> None:
    """total = ufunc(total, left @ right), in place.

    With left a partial map p = sum_k v_k |r_k><c_k|, row r_k of p m is
    v_k m[c_k], a row gather.  With right such a p whose columns are distinct,
    column c_k of m p is m[:, r_k] v_k, a column scatter.  Each is O(d^2),
    and each entry is one product, as in the dense product, where the other
    terms are zeros.  With repeated columns an entry of m p sums several
    products, so that product stays dense, as does any other, O(d^3)."""
    form = left.partial_map
    if form is not None:
        rows, cols, vals = form
        block = right.entries[cols]
        block *= vals[:, None]
        total[rows] = ufunc(total[rows], block, out=block)
        return
    form = right.partial_map
    if form is not None and _distinct(form[1]):
        rows, cols, vals = form
        block = left.entries[:, rows]
        block *= vals
        total[:, cols] = ufunc(total[:, cols], block, out=block)
        return
    ufunc(total, left.entries @ right.entries, out=total)


def op_norm(x: Operator | np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value.

    A matrix, square or not, whose ``_partial_map`` has distinct columns is a
    weighted partial permutation: its singular values are exactly the moduli
    of its nonzeros, so the norm is the largest modulus, found in O(size)
    with no SVD (0.0 for the zero matrix).  Diagonal matrices, such as the
    sums b* b of partial-map witness elements, take this path.  Any other
    matrix takes an SVD.  Deterministic for a fixed input.
    """
    a = _entries(x)
    form = _partial_map(a)
    if form is not None and _distinct(form[1]):
        return float(np.abs(form[2]).max(initial=0.0))
    return float(np.linalg.norm(a, 2))


def frobenius_norm(x: Operator | np.ndarray) -> float:
    return float(np.linalg.norm(_entries(x)))


def _hermitian_spectrum(x, tol: float, vectors: bool):
    """(||x - x*||, the ascending eigenvalues of (x + x*)/2, their
    eigenvectors or None, tol * max(1, largest |eigenvalue|))."""
    a = _entries(x)
    defect = op_norm(a - a.conj().T)
    h = (a + a.conj().T) / 2
    w, u = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    return defect, w, u, tol * max(1.0, -float(w[0]), float(w[-1]))


def psd_sqrt(x: Operator, tol: float = 1e-9) -> Operator:
    """Positive square root of a positive semidefinite operator.

    ``tol`` is relative: it is scaled by t = max(1, largest |eigenvalue| of
    the Hermitian part (x + x*)/2).  Eigenvalues in [-tol t, 0) are treated
    as truncation noise and clamped to zero, so the result y satisfies
    ||y @ y - x|| <= tol t plus rounding.

    Raises NotHermitian if ||x - x*|| > tol t and NotPositive if the least
    eigenvalue falls below -tol t.
    """
    defect, w, u, tol = _hermitian_spectrum(x, tol, vectors=True)
    if defect > tol:
        raise NotHermitian(f"||x - x*|| = {defect:.3e} > tol = {tol:.3e}")
    if w[0] < -tol:
        raise NotPositive(f"least eigenvalue {w[0]:.3e} < -tol = {-tol:.3e}")
    w = np.clip(w, 0.0, None)
    root = (u * np.sqrt(w)) @ u.conj().T
    root = (root + root.conj().T) / 2
    labels = x.basis_labels if isinstance(x, Operator) else None
    return Operator(root, labels)


def positivity_check(x: Operator, tol: float = 1e-9) -> PositivityReport:
    """Hermiticity and positivity report.

    ``min_eig`` is the least eigenvalue of the Hermitian part (x + x*)/2.
    ``tol`` is relative, as in ``psd_sqrt``: with t = max(1, largest
    |eigenvalue| of (x + x*)/2), ``is_psd`` holds iff ||x - x*|| <= tol t
    and min_eig >= -tol t.
    """
    defect, w, _, tol = _hermitian_spectrum(x, tol, vectors=False)
    min_eig = float(w[0])
    return PositivityReport(defect <= tol, min_eig, defect <= tol and min_eig >= -tol)
