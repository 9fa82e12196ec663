import ast
import math
from pathlib import Path

import numpy as np
import pytest

from traceless import Operator, identity, op_norm, positivity_check, psd_sqrt
from traceless.linalg import _lapack, frobenius_norm
from traceless.errors import DimensionMismatch, NotHermitian, NotPositive

from helpers import random_operator

SQRT3 = math.sqrt(3.0)


def test_op_norm_identity():
    assert op_norm(identity(5)) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_diagonal():
    assert op_norm(Operator(np.diag([3.0, -4.0]))) == pytest.approx(4.0, abs=1e-12)


def test_op_norm_nilpotent_shift():
    # oracle: x*x = diag(0, 4), so the singular values are {0, 2}
    x = Operator(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert op_norm(x) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_zero():
    assert op_norm(Operator(np.zeros((3, 3)))) == 0.0


def test_psd_sqrt_identity():
    y = psd_sqrt(identity(4))
    assert op_norm(y - identity(4)) <= 1e-12


def test_psd_sqrt_diagonal():
    y = psd_sqrt(Operator(np.diag([4.0, 9.0])))
    assert np.allclose(y.entries, np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_two_by_two():
    # eigendecomposition oracle: eigenvalues {1, 3} with vectors (1, -+1)/sqrt(2),
    # so the root is [[(sqrt3+1)/2, (sqrt3-1)/2], [(sqrt3-1)/2, (sqrt3+1)/2]]
    x = Operator(np.array([[2.0, 1.0], [1.0, 2.0]]))
    y = psd_sqrt(x)
    expected = np.array(
        [[(SQRT3 + 1) / 2, (SQRT3 - 1) / 2], [(SQRT3 - 1) / 2, (SQRT3 + 1) / 2]]
    )
    assert np.allclose(y.entries, expected, atol=1e-12)


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_sqrt(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        psd_sqrt(Operator(np.diag([1.0, -1e-3])))


def test_psd_sqrt_clamps_tiny_negatives():
    y = psd_sqrt(Operator(np.diag([1.0, -1e-12])))
    assert np.allclose(y.entries, np.diag([1.0, 0.0]), atol=1e-6)


def test_positivity_projection():
    report = positivity_check(Operator(np.diag([1.0, 0.0])), tol=1e-9)
    assert report.is_psd
    assert report.min_eig == pytest.approx(0.0, abs=1e-12)


def test_positivity_visible_negative():
    report = positivity_check(Operator(np.diag([1.0, -1e-6])), tol=1e-9)
    assert not report.is_psd


def test_positivity_rank_one():
    # v v* has eigenvalues {|v|^2, 0, ..., 0}, nonnegative by construction
    rng = np.random.default_rng(42)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    report = positivity_check(Operator(np.outer(v, v.conj())), tol=1e-9)
    assert report.is_psd
    assert report.min_eig >= -1e-12


def test_operator_validation():
    with pytest.raises(DimensionMismatch):
        Operator(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        Operator(np.eye(2), basis_labels=("a",))
    with pytest.raises(ValueError):
        Operator(np.eye(2), basis_labels=("a", "a"))


def test_norm_is_submultiplicative_and_star_invariant():
    rng = np.random.default_rng(1)
    for dim in (2, 5, 16):
        for _ in range(5):
            x = random_operator(rng, dim)
            y = random_operator(rng, dim)
            nx, ny = op_norm(x), op_norm(y)
            assert op_norm(x @ y) <= nx * ny * (1 + 1e-10)
            assert op_norm(x.adjoint()) == pytest.approx(nx, rel=1e-10)


def test_cstar_identity():
    rng = np.random.default_rng(2)
    for dim in (2, 16, 64, 128):
        x = random_operator(rng, dim)
        assert op_norm(x.adjoint() @ x) == pytest.approx(op_norm(x) ** 2, rel=1e-9)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    for dim in (2, 7, 33):
        g = random_operator(rng, dim)
        x = g.adjoint() @ g
        y = psd_sqrt(x)
        assert op_norm(y @ y - x) <= 1e-9 * (1 + op_norm(x))
        assert positivity_check(y).is_psd


def test_operator_arithmetic_needs_operator_operands():
    # a bare number or array would broadcast over every entry instead of
    # acting as a multiple of the identity
    op = Operator(np.eye(2))
    for other in (1, np.ones(2), np.eye(2)):
        for combine in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
            with pytest.raises(TypeError):
                combine(op, other)


SCALES = [10.0**k for k in range(11)]


def _rank_three_psd(scale):
    rng = np.random.default_rng(11)
    g = random_operator(rng, 8).entries[:3]
    return Operator(scale * (g.conj().T @ g))


@pytest.mark.parametrize("scale", SCALES)
def test_the_positivity_tolerance_is_relative_to_the_norm(scale):
    # five zero eigenvalues, which rounding at norm ~scale puts near -1e-16 scale
    x = _rank_three_psd(scale)
    assert positivity_check(x).is_psd
    root = psd_sqrt(x)
    assert op_norm(root @ root - x) <= 1e-9 * op_norm(x)


@pytest.mark.parametrize("scale", SCALES)
def test_a_visible_negative_eigenvalue_or_defect_is_refused_at_every_scale(scale):
    x = Operator(scale * np.diag([1.0, 0.5, -1e-3]))
    report = positivity_check(x)
    assert report.is_hermitian and not report.is_psd
    assert report.min_eig == pytest.approx(-1e-3 * scale)
    with pytest.raises(NotPositive):
        psd_sqrt(x)
    y = Operator(scale * np.array([[1.0, 1e-3], [0.0, 1.0]]))
    assert not positivity_check(y).is_hermitian
    with pytest.raises(NotHermitian):
        psd_sqrt(y)


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "traceless"


def _numpy_linalg_uses(tree: ast.AST):
    """Line numbers where a module names ``np.linalg`` or ``numpy.linalg``,
    as an attribute or in an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg") for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module.startswith("numpy.linalg") or (
                node.module == "numpy" and any(alias.name == "linalg" for alias in node.names)
            ):
                yield node.lineno


def test_only_linalg_calls_numpy_linalg():
    """Every LAPACK call and Frobenius norm goes through ``linalg``, where one
    finiteness rule guards it."""
    uses = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line in _numpy_linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert uses == []


def test_the_seam_test_sees_every_spelling():
    source = """
import numpy.linalg
from numpy import linalg
from numpy.linalg import norm
x = np.linalg.norm(a)
y = numpy.linalg.eigh(a)
z = linalg.norm(a)
"""
    # the last line's ``linalg`` is flagged at its import
    assert list(_numpy_linalg_uses(ast.parse(source))) == [2, 3, 4, 5, 6]


NOT_FINITE = [np.diag([np.nan, 1.0]), np.array([[1.0, np.inf], [0.0, 1.0]])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entries", NOT_FINITE, ids=["nan", "inf"])
def test_a_matrix_that_is_not_finite_is_refused_by_name(entries, capfd):
    """Refused before any LAPACK call, which would print complaints on the
    process's stdout, and with no warning."""
    calls = [
        lambda: op_norm(entries, "q"),
        lambda: op_norm(Operator(entries + np.eye(2)[::-1]), "q"),  # dense: no partial map
        lambda: frobenius_norm(entries, "q"),
        lambda: _lapack("eigh", "q", entries),
        lambda: _lapack("eigvalsh", "q", entries),
        lambda: _lapack("solve", "q", entries, np.ones(2)),
        lambda: _lapack("lstsq", "q", np.eye(2), entries[0], rcond=None),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^q is not finite$"):
            call()
    with pytest.raises(ValueError, match=r"^Hermitian part \(x \+ x\*\)/2 is not finite$"):
        positivity_check(Operator(np.diag([np.inf, 1.0])))
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_result_that_is_not_finite_is_refused_by_name():
    huge = np.full((2, 2), 1.5e308)
    for call in (
        lambda: op_norm(huge, "q"),
        lambda: frobenius_norm(huge, "q"),
        lambda: _lapack("eigh", "q", huge),
        lambda: _lapack("solve", "q", np.array([[1e-300]]), np.array([1e300])),
    ):
        with pytest.raises(ValueError, match=r"^q is not finite$"):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dtype", [float, complex])
def test_a_frobenius_norm_whose_squares_overflow_is_formed_scaled(dtype):
    entries = np.array([[1.5e308, 0.0], [3e307, -4e307]], dtype=dtype)
    scale = 1.5e308
    assert frobenius_norm(entries) == pytest.approx(
        scale * math.hypot(1.0, 0.2, 4e307 / scale), rel=1e-15
    )
    rotated = frobenius_norm(Operator(1j * entries))
    assert rotated == pytest.approx(frobenius_norm(entries), rel=1e-15)


def test_a_frobenius_norm_that_does_not_overflow_keeps_its_bits():
    rng = np.random.default_rng(90)
    for dtype in (float, complex):
        for _ in range(200):
            x = rng.standard_normal((5, 5)).astype(dtype) * 10.0 ** rng.integers(-150, 150)
            if dtype is complex:
                x += 1j * rng.standard_normal((5, 5))
            assert frobenius_norm(x) == float(np.linalg.norm(x))
    grad = rng.standard_normal(7)
    # a real vector keeps its dtype: its complex cast can differ in the last bit
    assert frobenius_norm(grad) == float(np.linalg.norm(grad))
