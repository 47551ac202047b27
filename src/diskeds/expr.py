"""Exact multivariate polynomials.

Sparse representation: a polynomial owns an ordered variable table and a
term map from exponent tuples to nonzero coefficients (Fraction in real
mode, GaussianRational in complexified mode).  Everything is immutable by
convention and all arithmetic is exact; no floats exist anywhere.

The text grammar (parsed by :func:`parse_expression`, emitted by the
canonical printer) is:

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ['^' INT]
    atom     := INT ['/' INT] | NAME | 'i' | '(' expr ')'

Exponents must be plain non-negative integers; '/' only forms rational
literals; 'i' is the imaginary unit in complexified mode only; parentheses
and unary minuses nest at most ``MAX_NESTING`` levels.  Neither the
expanded expression nor a sum or partial product on the way to it may pass
``MAX_TERMS`` terms or ``MAX_COEFFICIENT_BITS`` bits in its coefficients,
and the parses sharing a :class:`ParseBudget` (those of one document) may
multiply at most ``MAX_PRODUCT_PAIRS`` coefficient pairs, holding at most
``MAX_PRODUCT_WORDS`` pairs of 64-bit words of the integers the products
work on, together; a power of a constant counts as one pair of its own
words.
Term order is graded lexicographic on the table order, so printing is
deterministic and files round-trip.

Every product of two term tables, in the parser and in ``Polynomial``
arithmetic, is :func:`_product`: one loop over the pairs of terms on
integer exponent keys, which builds the table, term order and
coefficient types of the term-by-term operator fold.

The jet tables that strata are parsed over (:func:`jet_table`) and a
stratum's open conditions (``Opening``) live here too, so loading a
document needs nothing of ``jets``, which analyzes the strata.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add as _add, lshift as _lshift

from .errors import (
    DimensionMismatch,
    MalformedSyntax,
    NegativeOrNonIntegerExponent,
    SchemaViolation,
    UnknownVariable,
)
from .exact import (
    FirstJet,
    GaussianRational,
    I_UNIT,
    MAX_POWER_BITS,
    PreparedPoint,
    _fraction,
    _cleared,
    normalize_scalar,
    polynomial_at,
    power,
    power_bits,
    rational_str,
    scalar_str,
    sum_of_products,
)


_ONE = Fraction(1)
_ZERO = Fraction(0)


def _gradlex_key(exps):
    return (sum(exps), exps)


def _accumulate(terms, exps, c):
    """terms[exps] += c, starting from c itself and dropping a sum that
    cancels to zero."""
    s = terms.get(exps)
    if s is not None:
        c = s + c
        if c == 0:
            del terms[exps]
            return
    terms[exps] = c


def _too_many_terms(limit):
    raise SchemaViolation(f"expression expands past {limit} terms")


def _bits(c):
    """The bits of a coefficient's numerators and denominators."""
    if isinstance(c, GaussianRational):
        return _bits(c.re) + _bits(c.im)
    p, q = c.as_integer_ratio()
    return p.bit_length() + q.bit_length()


def _words(c):
    """The 64-bit words of a coefficient's (or an int's) numerators and
    denominators."""
    return _bits(c) // 64 + 1


def _bounded(terms, limit):
    """``terms``, raising past ``limit`` terms or past MAX_COEFFICIENT_BITS
    bits in all its coefficients together."""
    if len(terms) > limit:
        _too_many_terms(limit)
    if sum(map(_bits, terms.values())) > MAX_COEFFICIENT_BITS:
        raise SchemaViolation(
            f"expression expands past {MAX_COEFFICIENT_BITS} coefficient bits")
    return terms


def _product(a, b, budget=None):
    """The term table of the product of the term tables ``a`` and ``b``, the
    table the operator fold ``res[e1 + e2] += c1 * c2`` builds, in its
    term order and with its coefficient types.

    One monomial by one is one product.  Otherwise each exponent tuple is
    one integer key, its exponents in slots wide enough for the sum of
    the two tables' largest, so a product term's key is one addition and
    its exponent tuple is built when the key enters the table.  Two
    rational tables are cleared to integer numerators over the lcm of
    each table's denominators: a pair is one integer product and a term
    left one ``exact._fraction``; a table with a Gaussian coefficient
    takes the coefficients' operators in the same loop.  A sum that
    cancels leaves the table, as :func:`_accumulate` drops it.

    With a parse's :class:`ParseBudget`, the budget is charged for the
    integers the loop works on: each row of len(b) coefficient pairs, and
    their word pairs counted on the cleared numerators of rational tables
    (on the coefficients of others), is taken from it before the row is
    multiplied, and each term left over a denominator other than 1 takes
    its numerator's words times the denominator's, for the gcd that
    reduces it, before any gcd runs.  A partial product past MAX_TERMS terms raises, and so does
    a product past :func:`_bounded`'s coefficient bits."""
    if len(a) == 1 and len(b) == 1:
        (e1, c1), = a.items()
        (e2, c2), = b.items()
        # a parsed variable's coefficient is the shared 1, multiplied by
        # nothing; the other factor is a table the parser bounded already
        if c1 is _ONE or c2 is _ONE:
            return {tuple(map(_add, e1, e2)): c2 if c1 is _ONE else c1}
        if budget is not None:
            budget.take(1, _words(c1) * _words(c2))
        res = {tuple(map(_add, e1, e2)): c1 * c2}
        return res if budget is None else _bounded(res, MAX_TERMS)
    if not a or not b:
        return {}
    # two distinct exponent tuples make the width at least 1
    width = (max(map(max, a)) + max(map(max, b))).bit_length()
    shifts = range(0, width * len(next(iter(a))), width)
    rational = all(type(c) is Fraction for t in (a, b) for c in t.values())
    if rational:
        (ca, da), (cb, db) = _cleared(a.values()), _cleared(b.values())
    else:
        (ca, da), (cb, db) = (a.values(), 1), (b.values(), 1)
    A = zip([sum(map(_lshift, e, shifts)) for e in a], a, ca)
    B = list(zip([sum(map(_lshift, e, shifts)) for e in b], b, cb))
    if budget is not None:
        words_b = sum(map(_words, cb))
    res, exps = {}, {}
    get = res.get
    for k1, e1, c1 in A:
        if budget is not None:
            budget.take(len(B), _words(c1) * words_b)
        for k2, e2, c2 in B:
            k = k1 + k2
            s = get(k)
            if s is None:
                res[k] = c1 * c2
                exps[k] = tuple(map(_add, e1, e2))
            elif s := s + c1 * c2:
                res[k] = s
            else:
                del res[k]
        if budget is not None and len(res) > MAX_TERMS:
            _too_many_terms(MAX_TERMS)
    d = da * db
    if budget is not None and d != 1:
        budget.take(0, _words(d) * sum(map(_words, res.values())))
    res = {exps[k]: _fraction(c, d) if rational else c for k, c in res.items()}
    return res if budget is None else _bounded(res, MAX_TERMS)


def _power(terms, k, nvars, budget=None):
    """The term table of ``terms`` to the power k >= 0: square only while
    bits of k remain; ``budget`` as for :func:`_product`."""
    out, base = None, terms
    while k:
        if k & 1:
            out = base if out is None else _product(out, base, budget)
        k >>= 1
        if k:
            base = _product(base, base, budget)
    return {(0,) * nvars: _ONE} if out is None else out


class Polynomial:
    """Sparse exact polynomial over a fixed ordered variable table.

    The hash covers the table and the support (the exponent tuples) only:
    equal polynomials have equal supports, so it agrees with ``==``, and
    no coefficient is hashed."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            nvars = len(self.vars)
            for exps, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = normalize_scalar(coeff)
                if len(exps) != nvars:
                    raise DimensionMismatch(
                        f"exponent vector {exps} does not match table of length {nvars}")
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def canonical(cls, variables, terms):
        """A polynomial from ``terms`` that is canonical already: exponent
        tuples of the length of ``variables``, a tuple, and nonzero
        coefficients in :func:`exact.normalize_scalar` form.  Nothing is
        checked again and ``terms`` is taken, not copied."""
        p = cls.__new__(cls)
        p.vars, p.terms, p._hash = variables, terms, None
        return p

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, value):
        value = normalize_scalar(value)
        z = (0,) * len(tuple(variables))
        return cls(variables, {z: value})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max(map(sum, self.terms), default=0)

    def leading(self):
        """Gradlex-leading (exps, coeff) pair; requires nonzero."""
        exps = max(self.terms, key=_gradlex_key)
        return exps, self.terms[exps]

    def constant_term(self):
        z = (0,) * len(self.vars)
        return self.terms.get(z, Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = normalize_scalar(other)
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * len(self.vars): other}
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms)))
        return self._hash

    def __repr__(self):
        return f"Polynomial({print_polynomial(self)!r})"

    # -- ring operations ----------------------------------------------

    def _check_same_table(self, other):
        if self.vars != other.vars:
            raise DimensionMismatch(
                f"mixed variable tables {self.vars} vs {other.vars}")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check_same_table(other)
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = dict(self.terms)
        for exps, c in other.terms.items():
            _accumulate(res, exps, c)
        return Polynomial(self.vars, res)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial(self.vars, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise NegativeOrNonIntegerExponent(f"bad exponent {k!r}")
        return Polynomial(self.vars, _power(self.terms, k, len(self.vars)))

    def scale(self, c):
        """c times the polynomial; 0 and 1 cost no product."""
        c = normalize_scalar(c)
        if c == 0:
            return Polynomial.zero(self.vars)
        if c == 1:
            return self
        return Polynomial(self.vars, {e: v * c for e, v in self.terms.items()})

    # -- calculus -----------------------------------------------------

    def _at(self, point) -> PreparedPoint:
        """``point``, one value per variable, prepared for
        :func:`exact.polynomial_at`; a PreparedPoint is taken as it is."""
        if type(point) is not PreparedPoint:
            point = PreparedPoint(point)
        self._check_length(point.values)
        return point

    def _check_length(self, values):
        if len(values) != len(self.vars):
            raise DimensionMismatch(
                f"point of length {len(values)} vs {len(self.vars)} variables")

    def evaluate(self, point):
        """The value at a point.  A constant takes no pass and prepares no
        point: its value is its constant term, the exact 0 for the zero
        polynomial."""
        terms = self.terms
        if len(terms) > 1 or terms and any(next(iter(terms))):
            return polynomial_at(terms.items(), self._at(point))[0]
        self._check_length(point.values if type(point) is PreparedPoint else point)
        return next(iter(terms.values()), _ZERO)

    def derivatives_at(self, point, second=False):
        """The gradient at a point and, with ``second``, the Hessian rows
        (else None), from one pass over the terms."""
        _, grad, hessian = polynomial_at(self.terms.items(), self._at(point),
                                         2 if second else 1, value=False)
        return grad, hessian

    def first_jet(self, point) -> FirstJet:
        """Value and gradient at a point.  A polynomial of degree 1 or 0
        takes no pass over its terms: its gradient is its linear
        coefficients, and its value their dot with the point, plus the
        constant term, from one integer sum."""
        at = self._at(point)
        if self.degree() > 1:
            value, grad, _ = polynomial_at(self.terms.items(), at, 1)
            return FirstJet(value, grad)
        grad = [_ZERO] * len(at.values)
        constant = _ZERO
        for exps, c in self.terms.items():
            if 1 in exps:
                grad[exps.index(1)] = c
            else:
                constant = c
        value = sum_of_products(grad, at.values, constant)
        return FirstJet(constant if value is None else normalize_scalar(value), tuple(grad))


# ----------------------------------------------------------------------
# parser


_OPS = set("+-*^()/")


def tokenize(text):
    """The (kind, value, byte offset) tokens of an expression string."""
    if not isinstance(text, str):
        raise SchemaViolation(f"an expression must be a string, got {text!r}")
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise MalformedSyntax("floating point literals are not allowed", j)
            try:
                tokens.append(("INT", int(text[i:j]), i))
            except ValueError:   # a digit int() does not read, or too many digits
                raise MalformedSyntax("unreadable integer literal", i) from None
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise MalformedSyntax(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


# unary minuses and parentheses an expression may nest
MAX_NESTING = 100
# the most terms a table may reach while the parser expands an expression
MAX_TERMS = 2000
# the most bits its coefficients may hold together: (f1 + f2 + f4)^60 holds
# 126,546, and (1 + f1)^1999, 2,000 terms of 2,874,786 bits, takes 1.8 s
MAX_COEFFICIENT_BITS = 2 ** 17
# the most coefficient pairs, len(a) * len(b) for a product of two tables,
# that the parses of one document may multiply together, taken one row of
# a product at a time before the row is multiplied: (f1 + f2 + f4)^60
# takes 284,337 in about 60 ms, and at about 0.2 microseconds a pair of
# small coefficients the products of one load stop within about 0.15 s
MAX_PRODUCT_PAIRS = 2 ** 19
# the most word pairs those products may multiply, taken with the pairs: a
# coefficient of b bits is b // 64 + 1 words and a pair costs the product
# of its words, counted on a rational table's cleared numerators, and each
# term left over a denominator other than 1 costs its numerator's words
# times the denominator's for its gcd.  3^20000*3^20000, 1 pair, takes
# 496^2 and about 0.7 ms, so few products of large coefficients stop
# within about a tenth of a second; (1 + f1)^420*(1 + f1)^420 takes
# 5,602,827
MAX_PRODUCT_WORDS = 2 ** 25


class ParseBudget:
    """The coefficient pairs, and the word pairs of their coefficients,
    that the parses sharing this budget, those of one document, may still
    multiply."""

    __slots__ = ("pairs", "words")

    def __init__(self):
        self.pairs = MAX_PRODUCT_PAIRS
        self.words = MAX_PRODUCT_WORDS

    def take(self, pairs, words):
        """Take ``pairs`` coefficient pairs and ``words`` word pairs before
        they are multiplied; SchemaViolation when either passes the budget."""
        self.pairs -= pairs
        if self.pairs < 0:
            raise SchemaViolation(f"expressions multiply past {MAX_PRODUCT_PAIRS} "
                                  f"coefficient pairs in one document")
        self.words -= words
        if self.words < 0:
            raise SchemaViolation(f"expressions multiply past {MAX_PRODUCT_WORDS} "
                                  f"coefficient word pairs in one document")


def unit_exponents(variables):
    """name -> the exponent tuple of that variable alone, the first slot
    for a name the table repeats."""
    nvars = len(variables)
    units = {}
    for i, name in enumerate(variables):
        units.setdefault(name, (0,) * i + (1,) + (0,) * (nvars - i - 1))
    return units


class _Parser:
    """Recursive descent over term tables {exponent tuple: coefficient};
    only :meth:`parse` builds a Polynomial."""

    def __init__(self, tokens, variables, complexified, units, budget):
        self.tokens = tokens
        self.budget = ParseBudget() if budget is None else budget
        self.pos = 0
        self.depth = 0
        self.vars = tuple(variables)
        self.units = unit_exponents(self.vars) if units is None else units
        self.zero = (0,) * len(self.vars)
        self.complexified = complexified

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise MalformedSyntax(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MalformedSyntax(
                f"expression nested deeper than {MAX_NESTING} levels", tok[2])

    def parse(self):
        terms = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise MalformedSyntax(f"trailing input {tok[1]!r}", tok[2])
        return Polynomial(self.vars, terms)

    def expr(self):
        # the running sum is a table this parse built, so it is updated in place
        terms = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            for exps, c in self.term().items():
                _accumulate(terms, exps, c if op == "+" else -c)
        return _bounded(terms, MAX_TERMS)   # products are bounded as they grow

    def term(self):
        terms = self.factor()
        while self.peek()[0] == "*":
            self.take()
            terms = _product(terms, self.factor(), self.budget)
        return terms

    def factor(self):
        if self.peek()[0] == "-":
            self.nest(self.take())
            terms = {e: -c for e, c in self.factor().items()}
            self.depth -= 1
            return terms
        terms = self.atom()
        if self.peek()[0] == "^":
            self.take()
            k = self.exponent()
            if len(terms) == 1:   # one term: scale its exponents, power its coefficient
                (exps, c), = terms.items()
                if c is not _ONE:
                    # c^k's squarings multiply about one pair of its words, and
                    # power refuses a c^k past the bit bound before any of them
                    words = min(power_bits(c) * k, MAX_POWER_BITS) // 64 + 1
                    self.budget.take(1, words * words)
                    c = power(c, k)
                return {tuple([e * k for e in exps]): c}
            terms = _power(terms, k, len(self.vars), self.budget)
        return terms

    def exponent(self):
        tok = self.peek()
        if tok[0] == "-":
            raise NegativeOrNonIntegerExponent(
                f"negative exponent at byte {tok[2]}")
        tok = self.take()
        if tok[0] != "INT":
            raise MalformedSyntax(f"expected integer exponent, found {tok[1]!r}", tok[2])
        if self.peek()[0] == "/" and self.tokens[self.pos + 1][0] == "INT":
            raise NegativeOrNonIntegerExponent(
                f"fractional exponent at byte {self.peek()[2]}")
        return tok[1]

    def atom(self):
        tok = self.take()
        kind, value, off = tok
        if kind == "INT":
            if self.peek()[0] == "/":
                self.take()
                den = self.expect("INT")
                if den[1] == 0:
                    raise MalformedSyntax("zero denominator", den[2])
                return {self.zero: _fraction(value, den[1])} if value else {}
            return {self.zero: _fraction(value, 1)} if value else {}
        if kind == "NAME":
            unit = self.units.get(value)
            if unit is None:
                if value == "i" and self.complexified:
                    return {self.zero: I_UNIT}
                raise UnknownVariable(f"unknown variable {value!r} at byte {off}")
            return {unit: _ONE}
        if kind == "(":
            self.nest(tok)
            terms = self.expr()
            self.expect(")")
            self.depth -= 1
            return terms
        raise MalformedSyntax(f"unexpected token {value!r}", off)


def parse_tokens(tokens, variables, complexified=False, units=None,
                 budget=None) -> Polynomial:
    """Parse the tokens of an expression into the expanded canonical
    polynomial; ``units`` is :func:`unit_exponents` of ``variables``, to
    build once for many expressions over one table, and ``budget`` the
    :class:`ParseBudget` shared by the parses of one document (a fresh one
    when None)."""
    return _Parser(tokens, variables, complexified, units, budget).parse()


def parse_expression(text, variables, complexified=False, units=None,
                     budget=None) -> Polynomial:
    """Parse ``text`` into the expanded canonical polynomial."""
    return parse_tokens(tokenize(text), variables, complexified, units, budget)


# ----------------------------------------------------------------------
# canonical printer


def _monomial_str(variables, exps):
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=_gradlex_key, reverse=True):
        c = p.terms[exps]
        mono = _monomial_str(p.vars, exps)
        if isinstance(c, GaussianRational) and c.re != 0:
            sign = False
            body = scalar_str(c)
        elif isinstance(c, GaussianRational):
            sign = c.im < 0
            body = scalar_str(GaussianRational(0, abs(c.im)))
        else:
            sign = c < 0
            body = rational_str(abs(c))
        if mono:
            body = mono if body == "1" else (f"{body}*{mono}" if body != "i" else f"i*{mono}")
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign else "") + first_body
    for sign, body in pieces[1:]:
        out += (" - " if sign else " + ") + body
    return out


# ----------------------------------------------------------------------
# jet tables and openings


# the jet tables kept built: a command meets one n and a few jet orders
JET_TABLES_KEPT = 16


@lru_cache(maxsize=JET_TABLES_KEPT)
def jet_table(n: int, max_order: int):
    """z/zb (order 0) then w-jets of orders 1..max_order; one tuple per
    (n, max_order), the last JET_TABLES_KEPT of them kept built."""
    names = [f"z{l}" for l in range(1, n + 1)] + [f"zb{l}" for l in range(1, n + 1)]
    for k in range(max_order):
        suffix = "" if k == 0 else f"_{k}"
        names += [f"w{l}{suffix}" for l in range(1, n + 1)]
        names += [f"wb{l}{suffix}" for l in range(1, n + 1)]
    return tuple(names)


# an open condition of a stratum on a Polynomial over a jet table; sign:
# "+", "-", or "nonzero"
Opening = namedtuple("Opening", "poly sign", defaults=("nonzero",))
