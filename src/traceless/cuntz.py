"""Exact symbolic arithmetic for n isometries with orthogonal ranges.

The algebra is generated by s_1..s_n subject to s_i* s_j = delta_ij (the
relation sum_i s_i s_i* = 1 is deliberately NOT imposed).  Every element is
a finite complex combination of normal-form monomials s_mu s_nu* indexed by
pairs of words over {1..n}, and two elements are equal iff their normal
forms match coefficient by coefficient.

Products reduce by prefix overlap:

    (s_a s_nu*)(s_mu s_b*) = s_(a+rest) s_b*   if mu = nu + rest,
                           = s_a s_(b+rest)*   if nu = mu + rest,
                           = 0                 otherwise.

The module also carries the finite-dimensional picture: the truncated Fock
space spanned by words of length <= L, on which each generator acts as the
shift w -> iw (killing words of maximal length).  Evaluation there turns
symbolic identities into concrete matrices, exactly on the interior and
with controlled defects at the length-L boundary.

The public constructor ``StarPolynomial(n, terms)`` checks every letter of
every word, as do the parser and the JSON readers that call it.  The
module's own arithmetic (``add``, ``multiply``, ``multiply_scalar``,
``adjoint`` and ``diagonal_sqrt``) builds its results from words that were
already checked, so it trusts them and only prunes.

``StarPolynomial`` and ``linalg.Operator`` share one operator syntax (``+``,
``-``, scalar ``*``, ``.adjoint()``, and ``@`` for the product, which on a
StarPolynomial is the same product as ``*``), so code such as ``star_sums``
serves both element types.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GeneratorMismatch,
    IndexOutOfRange,
    NotHermitian,
    NotPositive,
    StarSyntaxError,
    SymbolicSqrtUnsupported,
)
from .linalg import Operator, identity

__all__ = [
    "Word",
    "StarPolynomial",
    "FockTruncation",
    "unit",
    "gen",
    "word_isometry",
    "vacuum_projection",
    "add",
    "multiply",
    "adjoint",
    "commutator",
    "equals",
    "star_sums",
    "parse_star_poly",
    "poly_to_string",
    "fock_truncation",
    "fock_truncation_from_labels",
    "truncated_isometries",
    "interior_projection",
    "interior_for_degree",
    "interior_indices",
    "evaluate",
    "evaluate_expression",
    "word_to_string",
    "word_from_string",
    "NormEstimate",
    "symbolic_norm",
    "diagonal_sqrt",
]

Word = tuple[int, ...]

# Coefficients at or below this modulus are dropped from normal forms.
PRUNE_TOL = 1e-14


def word_to_string(word: Word) -> str:
    return "".join(str(letter) for letter in word)


def word_from_string(text: str) -> Word:
    if text and not text.isdigit():
        raise ValueError(f"word string must be generator digits, got {text!r}")
    return tuple(int(ch) for ch in text)


def _check_word(word: Word, n: int) -> Word:
    word = tuple(int(g) for g in word)
    for g in word:
        if not 1 <= g <= n:
            raise IndexOutOfRange(f"generator index {g} outside 1..{n}")
    return word


def _pruned(terms: dict) -> dict:
    """``terms`` with each coefficient as 0j + coef (a -0.0 part becomes
    +0.0), less those of modulus <= PRUNE_TOL.  Raises ValueError for a
    coefficient whose modulus is not a finite float."""
    kept = {}
    for key, coef in terms.items():
        coef = 0j + coef
        try:
            modulus = abs(coef)
        except OverflowError:
            modulus = math.inf
        if not modulus <= PRUNE_TOL:  # a NaN modulus lands here too
            if not modulus < math.inf:
                raise ValueError(f"coefficient {coef!r} of term {key} has no finite modulus")
            kept[key] = coef
    return kept


class StarPolynomial:
    """Normal-form element: finite map (mu, nu) -> coefficient for s_mu s_nu*.

    The constructor merges repeated word pairs and checks every letter of
    every word (IndexOutOfRange outside 1..n).  Results of the module's own
    arithmetic come from ``_trusted``, which skips the word check.  Both
    prune by ``_pruned``: ValueError for a coefficient whose modulus is not a
    finite float."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one generator")
        self.n = int(n)
        items = terms.items() if isinstance(terms, dict) else (terms or [])
        merged: dict[tuple[Word, Word], complex] = {}
        for (mu, nu), coef in items:
            key = (_check_word(mu, self.n), _check_word(nu, self.n))
            merged[key] = merged.get(key, 0j) + complex(coef)
        self._terms = _pruned(merged)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "StarPolynomial":
        """The element with ``terms``, a dict keyed by pairs of words over
        1..n as tuples of ints, pruned but not checked: for results of this
        module's arithmetic on checked elements."""
        p = cls.__new__(cls)
        p.n = n
        p._terms = _pruned(terms)
        return p

    @property
    def terms(self) -> dict[tuple[Word, Word], complex]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[Word, Word], complex]]:
        """Terms in length-then-lexicographic order of (mu, nu): the serialization order."""
        return sorted(
            self._terms.items(),
            key=lambda item: ((len(item[0][0]), item[0][0]), (len(item[0][1]), item[0][1])),
        )

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(max(len(mu), len(nu)) for mu, nu in self._terms)

    def coefficient(self, mu: Word, nu: Word) -> complex:
        return self._terms.get((tuple(mu), tuple(nu)), 0j)

    # arithmetic sugar; the named module functions hold the actual logic
    def __add__(self, other):
        if not isinstance(other, StarPolynomial):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, StarPolynomial):
            return NotImplemented
        return add(self, multiply_scalar(other, -1))

    def __mul__(self, other):
        if isinstance(other, StarPolynomial):
            return multiply(self, other)
        return multiply_scalar(self, other)

    def __rmul__(self, scalar):
        return multiply_scalar(self, scalar)

    def __matmul__(self, other):
        if not isinstance(other, StarPolynomial):
            return NotImplemented
        return multiply(self, other)

    def __neg__(self):
        return multiply_scalar(self, -1)

    def adjoint(self) -> "StarPolynomial":
        return adjoint(self)

    def __repr__(self) -> str:
        return poly_to_string(self)


def _require_same_n(p: StarPolynomial, q: StarPolynomial):
    if p.n != q.n:
        raise GeneratorMismatch(f"{p.n} generators vs {q.n}")


def unit(n: int) -> StarPolynomial:
    return StarPolynomial(n, {((), ()): 1.0})


def zero_poly(n: int) -> StarPolynomial:
    return StarPolynomial(n, {})


def gen(n: int, i: int) -> StarPolynomial:
    """The generator s_i."""
    return StarPolynomial(n, {((i,), ()): 1.0})


def word_isometry(n: int, word: Word) -> StarPolynomial:
    """s_w for a word w (the empty word gives the unit)."""
    return StarPolynomial(n, {(word, ()): 1.0})


def vacuum_projection(n: int) -> StarPolynomial:
    """1 - sum_i s_i s_i*, the rank-one projection onto the empty word."""
    terms = {((), ()): 1.0 + 0j}
    for i in range(1, n + 1):
        terms[((i,), (i,))] = -1.0 + 0j
    return StarPolynomial(n, terms)


def add(p: StarPolynomial, q: StarPolynomial) -> StarPolynomial:
    _require_same_n(p, q)
    terms = dict(p._terms)
    for key, coef in q._terms.items():
        terms[key] = terms.get(key, 0j) + coef
    return StarPolynomial._trusted(p.n, terms)


def multiply_scalar(p: StarPolynomial, scalar) -> StarPolynomial:
    scalar = complex(scalar)
    return StarPolynomial._trusted(p.n, {key: coef * scalar for key, coef in p._terms.items()})


def multiply(p: StarPolynomial, q: StarPolynomial) -> StarPolynomial:
    """Normal form of the product, by prefix-overlap reduction of s_nu* s_mu."""
    _require_same_n(p, q)
    terms: dict[tuple[Word, Word], complex] = {}
    for (alpha, nu), c1 in p._terms.items():
        for (mu, beta), c2 in q._terms.items():
            if len(nu) <= len(mu):
                if mu[: len(nu)] != nu:
                    continue
                key = (alpha + mu[len(nu):], beta)
            else:
                if nu[: len(mu)] != mu:
                    continue
                key = (alpha, beta + nu[len(mu):])
            terms[key] = terms.get(key, 0j) + c1 * c2
    return StarPolynomial._trusted(p.n, terms)


def adjoint(p: StarPolynomial) -> StarPolynomial:
    return StarPolynomial._trusted(
        p.n, {(nu, mu): coef.conjugate() for (mu, nu), coef in p._terms.items()}
    )


def commutator(p: StarPolynomial, q: StarPolynomial) -> StarPolynomial:
    return add(multiply(p, q), multiply_scalar(multiply(q, p), -1))


def equals(p: StarPolynomial, q: StarPolynomial, tol: float = 1e-12) -> bool:
    """Coefficient-wise comparison of normal forms."""
    _require_same_n(p, q)
    for key in p._terms.keys() | q._terms.keys():
        if abs(p._terms.get(key, 0j) - q._terms.get(key, 0j)) > tol:
            return False
    return True


def star_sums(family) -> tuple:
    """(sum_i b_i* b_i, sum_i b_i b_i*), summed in index order.

    Written in the operator syntax shared by StarPolynomial and Operator, so
    one call serves a symbolic or a matrix family.  For a matrix family whose
    every element is a weighted partial permutation b = sum_k v_k |r_k><c_k|
    (``Operator.partial_map``), b* b = sum_k |v_k|^2 |c_k><c_k| and
    b b* = sum_k |v_k|^2 |r_k><r_k| are both diagonal, so two scatters onto
    length-d diagonals take the place of products.  A sum that overflows holds
    infinities or NaNs, with no warning, for the caller to refuse by name.
    """
    family = tuple(family)
    forms = [None if isinstance(b, StarPolynomial) else b.partial_map for b in family]
    with np.errstate(over="ignore", invalid="ignore"):
        if any(form is None for form in forms) or len({b.dim for b in family}) > 1:
            sum_star = functools.reduce(operator.add, (b.adjoint() @ b for b in family))
            sum_range = functools.reduce(operator.add, (b @ b.adjoint() for b in family))
            return sum_star, sum_range
        star_diag, range_diag = np.zeros((2, family[0].dim))
        for rows, cols, vals in forms:
            weights = (vals.conj() * vals).real
            star_diag[cols] += weights
            range_diag[rows] += weights
    labels = family[0].basis_labels
    return Operator(np.diag(star_diag), labels), Operator(np.diag(range_diag), labels)


# ---------------------------------------------------------------------------
# Expression parser
#
# expr    := ['+'|'-'] term (('+'|'-') term)*
# term    := scalar '*' factor+ | scalar factor* | factor+
# factor  := 's' digits ['*'] | '1' | complex | '(' expr ')'
# scalar  := float | complex
# complex := '(' float ('+'|'-') float 'i' ')'
#
# Juxtaposition of factors is the product.  A '*' after a generator is always
# its adjoint, so "s1 * s2" is s1* s2.  A term's leading number or complex
# scalar multiplies the product after it, with or without a '*': "2*s1 s2",
# "2 s1 s2" and "(1+2i) s1" are scalar multiples, "1 s1" is s1.  Later in a
# term '1' and a complex scalar are factors, as in "s1 1" and "s1 (1+2i)";
# any other number there is an error.  The leading sign is optional.
# Whitespace is ignored, also inside a complex scalar "( a + b i )", which
# the tokenizer reads as one token, so the parser needs one token of
# lookahead.
# ---------------------------------------------------------------------------

_NUMBER = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
# the "end" and "bad" alternatives make consecutive matches cover the text
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<gen>s\d+)|(?P<num>{_NUMBER})"
    rf"|(?P<complex>\(\s*(?P<re>{_NUMBER})\s*(?P<sign>[+-])\s*(?P<im>{_NUMBER})\s*i\s*\))"
    r"|(?P<op>[()+\-*i])|(?P<end>\Z)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int, complex | None]]:
    """(kind, text, position, scalar value) tokens, ending with an "end" token.

    An operator's kind is its text.  A complex scalar is one token of kind
    "complex" whose text and position are those of its '(', so an error
    message names it as it names a parenthesis."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise StarSyntaxError(f"unexpected character {match[kind]!r}", match.start(kind))
        value = None
        if kind == "num":
            value = complex(float(match["num"]))
        elif kind == "complex":
            value = complex(float(match["re"]), float(match["sign"] + match["im"]))
        word = "(" if kind == "complex" else match[kind]
        tokens.append((word if kind == "op" else kind, word, match.start(kind), value))
        if kind == "end":
            return tokens


class _Parser:
    """Recursive-descent parser with one token of lookahead, producing a
    small AST of tuples.

    Nodes: ("scalar", c), ("gen", i, position), ("adj", node), ("mul", [nodes]),
           ("sum", [(sign, node), ...]); a '1' is the scalar 1 everywhere.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self):
        node = self.parse_expr()
        token = self.peek()
        if token[0] != "end":
            raise StarSyntaxError(f"trailing input {token[1]!r}", token[2])
        return node

    def parse_expr(self):
        parts = []
        while not parts or self.peek()[0] in "+-":  # the first sign is optional
            sign = 1.0
            if self.peek()[0] in "+-":
                sign = -1.0 if self.advance()[0] == "-" else 1.0
            parts.append((sign, self.parse_term()))
        if len(parts) == 1 and parts[0][0] == 1.0:
            return parts[0][1]
        return ("sum", parts)

    def parse_term(self):
        token = self.peek()
        if token[0] not in ("num", "complex"):
            return self.parse_product([self.parse_factor()])
        scalar = ("scalar", self.advance()[3])
        if self.peek()[0] == "*":
            self.advance()
            return ("mul", [scalar, self.parse_product([self.parse_factor()])])
        return self.parse_product([scalar])

    def parse_product(self, factors: list):
        """``factors`` followed by every juxtaposed factor; one factor is itself."""
        while self.peek()[0] in ("gen", "num", "complex", "("):
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else ("mul", factors)

    def parse_factor(self):
        token = self.advance()
        kind = token[0]
        if kind == "gen":
            node = ("gen", int(token[1][1:]), token[2])
            if self.peek()[0] == "*":
                self.advance()
                return ("adj", node)
            return node
        if kind == "complex" or token[1] == "1":
            return ("scalar", token[3])
        if kind == "num":
            raise StarSyntaxError(f"number {token[1]!r} is not a factor", token[2])
        if kind == "(":
            node = self.parse_expr()
            closing = self.advance()
            if closing[0] != ")":
                raise StarSyntaxError(f"expected ')', found {closing[1]!r}", closing[2])
            return node
        raise StarSyntaxError(f"expected a factor, found {token[1]!r}", token[2])


def _interpret(node, one, n: int, generator):
    """Value of a parser AST in the operator syntax shared by both element
    types, given the unit ``one`` and ``generator(i)`` for i in 1..n."""
    kind = node[0]
    if kind == "scalar":
        return node[1] * one
    if kind == "gen":
        index, where = node[1], node[2]
        if not 1 <= index <= n:
            raise IndexOutOfRange(f"generator index {index} outside 1..{n} (at position {where})")
        return generator(index)
    if kind == "adj":
        return _interpret(node[1], one, n, generator).adjoint()
    if kind == "mul":
        result = one
        for factor in node[1]:
            result = result @ _interpret(factor, one, n, generator)
        return result
    total = 0 * one  # a "sum"
    for sign, part in node[1]:
        total = total + sign * _interpret(part, one, n, generator)
    return total


def parse_star_poly(text: str, n: int) -> StarPolynomial:
    """Parse an expression into its normal form."""
    return _interpret(_Parser(text).parse(), unit(n), n, lambda i: gen(n, i))


def _format_coefficient(coef: complex) -> tuple[str, str]:
    """Return (sign, magnitude-text) with sign in {'+', '-'}; '' marks coefficient one."""
    if abs(coef.imag) <= PRUNE_TOL:
        real = coef.real
        sign = "-" if real < 0 else "+"
        mag = abs(real)
        if abs(mag - 1.0) <= PRUNE_TOL:
            return sign, ""
        return sign, repr(float(mag))
    sign = "+"
    if coef.real < 0 or (coef.real == 0 and coef.imag < 0):
        sign = "-"
        coef = -coef
    # + 0.0 turns a real part of -0.0 into 0.0: the parser reads no sign there
    re_part, im_part = coef.real + 0.0, coef.imag
    im_sign = "+" if im_part >= 0 else "-"
    return sign, f"({float(re_part)!r}{im_sign}{float(abs(im_part))!r}i)"


def poly_to_string(p: StarPolynomial) -> str:
    """Canonical textual form; parsing it back gives each coefficient to
    within 2 * PRUNE_TOL (the printer rounds near-real and near-unit ones)."""
    if p.is_zero:
        return "0"
    pieces = []
    for (mu, nu), coef in p.sorted_terms():
        factors = [f"s{g}" for g in mu] + [f"s{g}*" for g in reversed(nu)]
        sign, mag = _format_coefficient(coef)
        if not factors:
            body = mag if mag else "1"
        elif mag:
            body = mag + "*" + " ".join(factors)
        else:
            body = " ".join(factors)
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Truncated Fock representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockTruncation:
    """Words of length <= depth over {1..n}, in length-then-lex order, each
    labelled by its letters' digits (one digit per letter, so n <= 9)."""

    n: int
    depth: int
    words: tuple[Word, ...]
    word_index: dict

    @property
    def dimension(self) -> int:
        return len(self.words)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(word_to_string(w) for w in self.words)


def fock_truncation(n: int, depth: int) -> FockTruncation:
    if n < 1 or depth < 0:
        raise ValueError("need n >= 1 and depth >= 0")
    if n > 9:
        raise ValueError(f"Fock labels take one digit per letter, so need n <= 9, got n = {n}")
    words = []
    for length in range(depth + 1):
        words.extend(itertools.product(range(1, n + 1), repeat=length))
    words = tuple(words)
    word_index = {w: k for k, w in enumerate(words)}
    if n > 1:
        assert len(words) == (n ** (depth + 1) - 1) // (n - 1)
    return FockTruncation(n, depth, words, word_index)


def fock_truncation_from_labels(labels) -> FockTruncation:
    """The truncation whose basis labels are ``labels``.

    Raises ValueError unless ``labels`` are exactly the length-then-lex word
    labels of some ``fock_truncation(n, depth)``.
    """
    labels = tuple(labels)
    lengths = [len(str(w)) for w in labels]
    n, depth = max(1, lengths.count(1)), max(lengths, default=0)
    if len(labels) == (depth + 1 if n == 1 else (n ** (depth + 1) - 1) // (n - 1)):
        trunc = fock_truncation(n, depth)
        if trunc.labels == labels:
            return trunc
    raise ValueError("basis labels are not a length-then-lex Fock basis")


def truncated_isometries(n: int, depth: int) -> list[Operator]:
    """The generators as matrices: v_i maps word w to iw, length-depth words to 0."""
    trunc = fock_truncation(n, depth)
    return [evaluate(gen(n, i), trunc) for i in range(1, n + 1)]


def interior_projection(trunc: FockTruncation, max_length: int) -> np.ndarray:
    """The interior of words of length <= max_length: the diagonal of that
    projection, a read-only bool vector with one entry per basis word."""
    mask = np.array([len(w) <= max_length for w in trunc.words], dtype=bool)
    mask.flags.writeable = False
    return mask


def interior_for_degree(labels, degree: int | None) -> np.ndarray | None:
    """``interior_projection`` for words of length <= depth - degree of the Fock
    basis named by ``labels``, where truncated products of degree-``degree``
    elements agree with symbolic ones; None if either is None or degree > depth."""
    if degree is None:
        return None
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    if labels is None:
        return None
    trunc = fock_truncation_from_labels(labels)
    if degree > trunc.depth:
        return None
    return interior_projection(trunc, trunc.depth - degree)


def interior_indices(mask: np.ndarray, dim: int) -> np.ndarray:
    """``mask`` checked as a bool index of a basis of dimension ``dim``: raises
    ValueError for another dtype and DimensionMismatch for another shape."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError(f"interior mask must be a bool vector, got dtype {mask.dtype}")
    if mask.shape != (dim,):
        raise DimensionMismatch(f"interior mask shape {mask.shape} vs ({dim},)")
    return mask


def evaluate(p: StarPolynomial, trunc: FockTruncation) -> Operator:
    """Matrix of a normal form: each s_mu s_nu* becomes v_mu v_nu*.

    For a single normal monomial the product of truncated shifts has entries
    E[mu+w, nu+w] over all words w with max(|mu|, |nu|) + |w| <= depth.
    """
    if p.n != trunc.n:
        raise GeneratorMismatch(f"{p.n} generators vs truncation over {trunc.n}")
    mat = np.zeros((trunc.dimension, trunc.dimension), dtype=complex)
    for (mu, nu), coef in p.sorted_terms():
        room = trunc.depth - max(len(mu), len(nu))
        for w in trunc.words:
            if len(w) > room:
                continue
            mat[trunc.word_index[mu + w], trunc.word_index[nu + w]] += coef
    return Operator(mat, trunc.labels)


def evaluate_expression(text: str, trunc: FockTruncation) -> Operator:
    """Evaluate an expression by composing truncated matrices, without
    normalizing first.

    This differs from ``evaluate(parse_star_poly(text, n), trunc)`` exactly
    at the truncation boundary: for instance "s1* s1" normalizes to 1, but
    the composition v1* v1 is the projection onto words of length < depth.
    """
    isometries = [evaluate(gen(trunc.n, i), trunc) for i in range(1, trunc.n + 1)]
    one = identity(trunc.dimension, trunc.labels)
    return _interpret(_Parser(text).parse(), one, trunc.n, lambda i: isometries[i - 1])


# ---------------------------------------------------------------------------
# Diagonal elements: exact norms and square roots
#
# A normal form whose every term has mu == nu acts diagonally on the word
# basis; the eigenvalue at word u is the sum of coefficients over prefixes
# of u.  That makes the C*-norm and positive square root finitely
# computable: eigenvalues change only at the (finitely many) support words.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormEstimate:
    value: float
    exact: bool


def _diagonal_coefficients(p: StarPolynomial) -> dict[Word, complex] | None:
    coeffs: dict[Word, complex] = {}
    for (mu, nu), coef in p._terms.items():
        if mu != nu:
            return None
        coeffs[mu] = coef
    return coeffs


def _prefix_closure(words) -> list[Word]:
    closure = {()}
    for w in words:
        for k in range(1, len(w) + 1):
            closure.add(w[:k])
    return sorted(closure, key=lambda w: (len(w), w))


def _eigenvalue_profile(coeffs: dict[Word, complex]) -> dict[Word, complex]:
    """Eigenvalue at each prefix-closure node; constant on subtrees below."""
    profile: dict[Word, complex] = {}
    for node in _prefix_closure(coeffs.keys()):
        parent = profile.get(node[:-1], 0j) if node else 0j
        profile[node] = parent + coeffs.get(node, 0j)
    return profile


def symbolic_norm(p: StarPolynomial) -> NormEstimate:
    """Operator norm of a symbolic element.

    Exact for diagonal elements (every term s_w s_w*): the norm is the
    largest eigenvalue modulus over the prefix tree.  Otherwise returns the
    coefficient-sum upper bound (each monomial is a partial isometry).
    """
    if p.is_zero:
        return NormEstimate(0.0, True)
    coeffs = _diagonal_coefficients(p)
    if coeffs is None:
        return NormEstimate(float(sum(abs(c) for c in p._terms.values())), False)
    profile = _eigenvalue_profile(coeffs)
    return NormEstimate(max(abs(v) for v in profile.values()), True)


def diagonal_sqrt(p: StarPolynomial, tol: float = 1e-9) -> StarPolynomial:
    """Positive square root of a diagonal element, coefficient by coefficient.

    Works on real combinations of the projections s_w s_w* whose eigenvalue
    profile is nonnegative (eigenvalues in [-tol, 0) are clamped to zero).
    Raises SymbolicSqrtUnsupported for non-diagonal input, NotHermitian for
    non-real profiles, NotPositive when an eigenvalue falls below -tol.
    """
    coeffs = _diagonal_coefficients(p)
    if coeffs is None:
        raise SymbolicSqrtUnsupported(
            "square root only supported for combinations of word projections"
        )
    profile = _eigenvalue_profile(coeffs)
    for node, value in profile.items():
        if abs(value.imag) > tol:
            raise NotHermitian(f"eigenvalue {value!r} at word {word_to_string(node)!r} is not real")
        if value.real < -tol:
            raise NotPositive(
                f"eigenvalue {value.real!r} at word {word_to_string(node)!r} is negative"
            )
    roots = {node: math.sqrt(max(value.real, 0.0)) for node, value in profile.items()}
    terms: dict[tuple[Word, Word], complex] = {}
    for node, value in roots.items():
        parent = roots.get(node[:-1], 0.0) if node else 0.0
        delta = value - parent if node else value
        terms[(node, node)] = complex(delta)
    # the nodes are prefixes of the checked words of p
    return StarPolynomial._trusted(p.n, terms)
