"""Correctness gates for the benchmark, in plain numpy.

Each gate takes the library's outputs as arrays and numbers and returns
None when they are correct, or a one-line reason when they are not.  None
of them calls the library: residuals, square roots, masks and norms are
recomputed here from the entries.
"""

from __future__ import annotations

import numpy as np

# Allowance for floating-point rounding, relative to the Frobenius norm of
# the largest operand (an upper bound on its operator norm).
ROUNDING = 1e-9
# Allowance for the square root of psi: the library's psd_sqrt is exact to
# its default tolerance 1e-9, relative here to the Frobenius norm of psi.
SQRT_TOL = 1e-9


def norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def commutator_sum(pairs) -> np.ndarray:
    """sum_i (x_i y_i - y_i x_i) for (x, y) array pairs."""
    total = np.zeros_like(pairs[0][0])
    for x, y in pairs:
        total += x @ y - y @ x
    return total


def sum_star(elements) -> np.ndarray:
    """sum_i b_i* b_i."""
    return sum(b.conj().T @ b for b in elements)


def self_commutator(a: np.ndarray) -> np.ndarray:
    """The self-adjoint commutator a* a - a a*."""
    return a.conj().T @ a - a @ a.conj().T


def psd_root(psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Positive square root of the Hermitian part of psi, and its least eigenvalue."""
    w, u = np.linalg.eigh((psi + psi.conj().T) / 2)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    return root, float(w[0])


def standard_gate(a, pairs, psi, s_star, tail) -> str | None:
    """Neumann decomposition a = sum [b_i*, b_i psi]: the residual must be
    r = (1 - sum b*b) psi + phi^(K+1)(a), whose last term is within the tail bound."""
    eye = np.eye(a.shape[0])
    defect = norm2(a - commutator_sum(pairs) - (eye - s_star) @ psi)
    limit = tail + ROUNDING * max(1.0, frob(psi))
    if defect > limit:
        return f"residual identity off by {defect:.3e} > {limit:.3e}"
    return None


def positive_gate(a, pairs, psi, s_star, tail) -> str | None:
    """Self-adjoint decomposition of a positive a with pairs
    (psi^(1/2) b_i*, b_i psi^(1/2)): psi >= 0, every contribution Hermitian, and
    r = psi^(1/2) (1 - sum b*b) psi^(1/2) + phi^(K+1)(a) up to the square-root tolerance."""
    root, least = psd_root(psi)
    if least < -1e-10:
        return f"psi has eigenvalue {least:.3e} < -1e-10"
    for i, (x, y) in enumerate(pairs):
        c = x @ y - y @ x
        skew = frob(c - c.conj().T)
        if skew > ROUNDING * max(1.0, frob(c)):
            return f"contribution {i} is not Hermitian: ||c - c*|| = {skew:.3e}"
    eye = np.eye(a.shape[0])
    defect = norm2(a - commutator_sum(pairs) - root @ (eye - s_star) @ root)
    limit = tail + (SQRT_TOL + ROUNDING) * max(1.0, frob(psi))
    if defect > limit:
        return f"positive residual identity off by {defect:.3e} > {limit:.3e}"
    return None


def matrix_from_json(data: dict) -> np.ndarray:
    entries = np.asarray(data["entries"], dtype=float)
    return entries[..., 0] + 1j * entries[..., 1]


def interior_indices(labels, degree: int) -> np.ndarray:
    """Basis positions of words of length <= depth - degree."""
    depth = max(len(w) for w in labels)
    return np.array([k for k, w in enumerate(labels) if len(w) <= depth - degree])


def shift_matrices(labels, n: int) -> list[np.ndarray]:
    """The truncated shifts v_i: word w -> iw, zero on words of maximal length."""
    index = {w: k for k, w in enumerate(labels)}
    out = []
    for i in range(1, n + 1):
        v = np.zeros((len(labels), len(labels)))
        for w, k in index.items():
            target = index.get(str(i) + w)
            if target is not None:
                v[target, k] = 1.0
        out.append(v)
    return out


def eval_gate(matrix: np.ndarray, labels, terms, n: int) -> str | None:
    """``terms`` is a list of (coefficient, [(generator, adjoint), ...]).

    Composing the truncated shifts never meets the truncation on words of
    length <= depth - degree, so on those columns the composed expression and
    the evaluated normal form must agree."""
    shifts = shift_matrices(labels, n)
    expected = np.zeros(matrix.shape, dtype=complex)
    degree = 0
    for coef, factors in terms:
        product = np.eye(matrix.shape[0])
        for i, adj in factors:
            product = product @ (shifts[i - 1].T if adj else shifts[i - 1])
        expected += coef * product
        degree = max(degree, len(factors))
    cols = interior_indices(labels, degree)
    off = frob(matrix[:, cols] - expected[:, cols])
    if off > ROUNDING * max(1.0, frob(expected)):
        return f"evaluated matrix differs from the composed expression by {off:.3e}"
    return None


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12 + ROUNDING * abs(y)


def cli_gate(check: dict, decomposition: dict, verification: dict, eps: float) -> str | None:
    """A CLI session: the truncated standard witness is boundary-invalid but
    interior-exact; verify reproduces decompose's residuals; the interior
    residual recomputed here is within eps."""
    report = check["report"]
    if report["valid"]:
        return "a truncated witness was reported valid"
    if report["eta1_interior"] > 1e-12 or abs(report["eta2"] - 0.5) > 1e-12:
        return f"witness report off: eta1_interior={report['eta1_interior']}, eta2={report['eta2']}"
    a = matrix_from_json(decomposition["a"])
    pairs = [(matrix_from_json(p["x"]), matrix_from_json(p["y"])) for p in decomposition["pairs"]]
    r = a - commutator_sum(pairs)
    keep = interior_indices(decomposition["a"]["labels"], decomposition["interior_degree"])
    recomputed = {
        "residual_norm": norm2(r),
        "residual_interior_norm": norm2(r[np.ix_(keep, keep)]),
    }
    for key, value in recomputed.items():
        if not _close(verification[key], decomposition[key]):
            return f"verify {key}={verification[key]} does not reproduce {decomposition[key]}"
        if not _close(value, decomposition[key]):
            return f"recomputed {key}={value} differs from reported {decomposition[key]}"
    if recomputed["residual_interior_norm"] > eps:
        return f"interior residual {recomputed['residual_interior_norm']:.3e} > eps"
    return None


def _distance(span, coefficients) -> np.ndarray:
    res = np.eye(span[0].shape[0], dtype=complex)
    for t, c in zip(coefficients, span):
        res -= t * c
    return res


def obstruction_gate(
    J: int, t0: float, k: float, eta2s, valids, full, interior
) -> str | None:
    """The constructive pipeline reaches t0 = 1/J and k = 3 with
    eta2 <= (k - 1 + t0)/k; the full distance from 1 to a commutator span
    stays >= 1 (the trace pins it) while the interior one drops below 1.

    ``full`` and ``interior`` are (span elements, coefficients, reported
    operator-norm residual), the interior span already compressed."""
    if abs(t0 - 1.0 / J) > 1e-10 or abs(k - 3.0) > 1e-10:
        return f"t0={t0}, k={k}; expected 1/{J} and 3"
    bound = (k - 1.0 + t0) / k
    if any(eta2 > bound + 1e-12 for eta2 in eta2s):
        return f"eta2 {list(eta2s)} above the guaranteed {bound}"
    if not all(valids):
        return "constructed witness not reported valid"
    values = {}
    for label, (span, coefficients, reported) in (("full", full), ("interior", interior)):
        values[label] = norm2(_distance(span, coefficients))
        if not _close(values[label], reported):
            return f"{label} distance recomputed {values[label]} vs reported {reported}"
    if values["full"] < 1.0 - 1e-9:
        return f"full distance {values['full']} below 1"
    if values["interior"] >= 1.0:
        return f"interior distance {values['interior']} not below 1"
    return None
