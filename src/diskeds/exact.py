"""Exact scalar arithmetic: rationals and Gaussian rationals.

Plain rationals are ``fractions.Fraction`` (already canonical: positive
denominator, reduced).  Complexified coefficients are ``GaussianRational``
pairs of Fractions.  Scalars interoperate: every operation accepts int,
Fraction or GaussianRational on either side, and values with zero imaginary
part normalize back down to Fraction so term dictionaries stay canonical.

The integer kernels live here too: :func:`sum_of_products` (under
``linalg.dot``), :func:`row_minus` (the elimination row update) and the
first-jet rules.  A Fraction x Fraction term a/b * c/d is the integer
pair (a c, b d); a kernel sums such pairs on one integer numerator over
the lcm of their denominators and makes each result one reduced Fraction
with :func:`_fraction`: one gcd, both parts divided by it, and a write of
Fraction's two slots.  That is exact: n/d with d > 0 divided through by
g = gcd(n, d) is the one reduced form with a positive denominator, so it
is the Fraction that ``Fraction(n, d)`` builds and Fraction's operators
reach term by term, in value, parts, hash and type.  First jets run on
the same kernels: a sum of products with FirstJet factors is one FirstJet
whose value joins the integer sum and whose tangent components are
integer sums of their own, and a FirstJet quotient sums its tangent the
same way (:func:`_add_scaled` is the one update of a tangent sum).  The
package's one polynomial evaluator, :func:`polynomial_at`, reads a term
table's value and derivatives at a :class:`PreparedPoint` on the same
integer sums.  The kernels read a Fraction's parts off the same slots;
importing the module checks that Fraction keeps its parts in exactly
those two slots and raises ImportError otherwise.  Operands of any other type
(GaussianRational, a rational function) take their own operators.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .errors import NotRealCoefficients, SchemaViolation

# the slots _fraction writes and the kernels read
FRACTION_SLOTS = ("_numerator", "_denominator")
if getattr(Fraction, "__slots__", None) != FRACTION_SLOTS:
    raise ImportError(
        f"diskeds needs fractions.Fraction laid out as the slots {FRACTION_SLOTS}; "
        f"{sys.implementation.name} {sys.version.split()[0]} has "
        f"{getattr(Fraction, '__slots__', None)!r}")

Rational = Fraction
_ZERO = Fraction(0)

# an optional sign, digits and an optional '/' and digits; no spaces, '_' or '.'
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def rat(value) -> Fraction:
    """Parse an exact rational from an int or a 'p/q' / 'p' string, made
    by :func:`_fraction` once the denominator is known to be nonzero.

    Decimal strings are rejected: '0.5' is not an exact input.  A string
    with no '/' and no '_' is read by int() alone, which takes the same
    texts as the pattern there (spaces around, a sign, Unicode decimal
    digits); the pattern reads 'p/q' and names every error.
    """
    if isinstance(value, str):   # first: a str is never a Fraction or an int
        if "/" not in value and "_" not in value:
            try:
                return _fraction(int(value), 1)
            except ValueError:
                pass
        m = _RATIONAL_RE.fullmatch(value.strip())
        if m is None:
            raise SchemaViolation(f"not an exact rational: {value!r}")
        try:
            num = int(m[1])
            den = 1 if m[2] is None else int(m[2])
        except ValueError:   # more digits than int() converts
            raise SchemaViolation(
                f"not an exact rational: {len(value)} characters is too long") from None
        if den == 0:
            raise SchemaViolation(f"zero denominator: {value!r}")
        return _fraction(num, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return _fraction(int(value), 1)
    kind = _KIND_NAMES.get(type(value), f"a {type(value).__name__}")
    raise SchemaViolation(f"not an exact rational: {kind}, not a 'p/q' string or an integer")


# what rat names a value of each refused kind: the JSON kinds a document
# can hold, and a float, which only a Python caller can pass
_KIND_NAMES = {bool: "a boolean", type(None): "null", list: "a list", dict: "an object",
               float: "a float"}


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    The constructor coerces both parts to Fraction; arithmetic builds its
    results with :func:`_gaussian_parts` from parts that are Fractions
    already.  An int or Fraction operand acts on the two parts directly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        # Fraction's own repr, written by the digit writer at any size
        re, im = (f"Fraction({rational_str(x.numerator)}, {_digits(x.denominator)})"
                  for x in (self.re, self.im))
        return f"GaussianRational(re={re}, im={im})"

    def conjugate(self) -> "GaussianRational":
        return _gaussian_parts(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return _gaussian_parts(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian_parts(_plus(self.re, other.re), _plus(self.im, other.im))
        if isinstance(other, (int, Fraction)):
            return _gaussian_parts(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian_parts(_minus(self.re, other.re), _minus(self.im, other.im))
        if isinstance(other, (int, Fraction)):
            return _gaussian_parts(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gaussian_parts(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _gaussian_parts(_minus(_times(a, c), _times(b, d)),
                                   _plus(_times(a, d), _times(b, c)))
        if isinstance(other, (int, Fraction)):
            return _gaussian_parts(_times(self.re, other), _times(self.im, other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            norm = other.re * other.re + other.im * other.im
            if norm == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            return _gaussian_parts(
                (self.re * other.re + self.im * other.im) / norm,
                (self.im * other.re - self.re * other.im) / norm)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            return _gaussian_parts(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gaussian_parts(other * self.re / norm, -other * self.im / norm)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return GaussianRational(1, 0) if out is None else out


_new_object = object.__new__


def _gaussian_parts(re: Fraction, im: Fraction) -> GaussianRational:
    """A GaussianRational from two Fractions, taken as they are."""
    g = _new_object(GaussianRational)
    g.re = re
    g.im = im
    return g


# The part arithmetic of GaussianRational: a real value's imaginary part is
# an exact zero, which costs no Fraction operation.

def _times(x: Fraction, y) -> Fraction:
    return x * y if x and y else _ZERO


def _plus(x: Fraction, y: Fraction) -> Fraction:
    return (x + y if x else y) if y else x


def _minus(x: Fraction, y: Fraction) -> Fraction:
    return (x - y if x else -y) if y else x

I_UNIT = GaussianRational(Fraction(0), Fraction(1))


class FirstJet:
    """Exact first jet of a function at a point: its value and gradient.

    Forward-mode differentiation over Q (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., 2008): a formula written with ``linalg.dot``
    and ``dot_plus``, negation and / carries the gradient by the sum,
    product and quotient rules, so evaluated over FirstJets seeded with
    each input's value and gradient it returns the exact value and first
    partial derivatives of its result.  A FirstJet is a value-and-tangent
    record: sums of products run on :func:`sum_of_products`, and the one
    operator beside negation is /, on :func:`_quotient`.  Both FirstJet
    operands of a quotient are jets at the same point.

    A factor, a ``dot_plus`` c or a quotient operand that is not a
    FirstJet is a constant (``int`` or ``Fraction``, a jet with zero
    gradient): it scales the gradient or joins the value and costs no
    gradient arithmetic of its own.  Each rule skips a gradient component
    whose terms have an exact zero factor, so a sparse gradient costs only
    its nonzero entries, and builds its value and gradient from integer
    pairs with :func:`_fraction`; a divisor whose value is 0 raises
    ZeroDivisionError.

    A FirstJet is always truthy: a jet whose value is 0 can still have a
    nonzero gradient, so it is never taken for the constant 0.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: Fraction, grad: tuple):
        self.value = value
        self.grad = grad

    def __neg__(self):
        return FirstJet(-self.value, _negated(self.grad))

    def __truediv__(self, other):
        if type(other) is FirstJet:
            return _quotient(self.value, self.grad, other.value, other.grad)
        return _quotient(self.value, self.grad, other, None)

    def __rtruediv__(self, other):
        return _quotient(other, None, self.value, self.grad)


def _negated(grad):
    return tuple(-a if a else a for a in grad)


# Integer kernels.  Each skips a term with an exact zero factor, testing
# numerators first: a denominator is read only for a term that is kept.  A
# Fraction's parts are read off its slots; an int coefficient's through
# its own numerator and denominator.

def _pair_sum(n1, d1, n2, d2):
    """n1/d1 + n2/d2 as an integer pair over lcm(d1, d2)."""
    if d1 == d2:
        return n1 + n2, d1
    g = gcd(d1, d2)
    return n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2


def _fraction(n, d):
    """The canonical Fraction n/d of ints n and d > 0: one gcd (none for
    d = 1) and a write of both slots, the Fraction ``Fraction(n, d)`` builds."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    x = _new_object(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _parts(c):
    """(numerator, denominator) of an int or a Fraction coefficient; (0, 1)
    for a zero Fraction, whose denominator is not read."""
    if type(c) is Fraction:
        n = c._numerator
        return (n, c._denominator) if n else (0, 1)
    return c.numerator, c.denominator


def _cleared(coefficients):
    """The integer numerators of nonzero Fractions over the lcm of their
    denominators, and that lcm."""
    d = lcm(*[c._denominator for c in coefficients])
    return [c._numerator * (d // c._denominator) for c in coefficients], d


def _inverse_parts(c):
    """(numerator, denominator) of 1/c, the denominator positive;
    ZeroDivisionError for c = 0."""
    n, d = _parts(c)
    if not n:
        raise ZeroDivisionError("division by zero FirstJet")
    return (d, n) if n > 0 else (-d, -n)


def sum_of_products(xs, ys, c=None):
    """c + sum_k xs[k] * ys[k] over exact scalars with every term that has
    an exact zero factor left out; None when every term is left out.

    The Fraction x Fraction terms and a Fraction c make one Fraction, from
    one numerator over the lcm of their denominators.  With a FirstJet
    factor in any term the sum is one FirstJet (:func:`_jet_sum`), every
    other factor and c an int, Fraction or FirstJet: each term's value
    joins that integer sum and each tangent component is an integer sum of
    its own.  Other pairs take their own operators and their sum comes
    first, any other c last.
    """
    cn = c._numerator if type(c) is Fraction else 0
    num, den = 0, 0     # den = 0 until the first Fraction term
    rest = jets = None
    for x, y in zip(xs, ys):
        if type(x) is Fraction and type(y) is Fraction:
            a = x._numerator
            if a:
                b = y._numerator
                if b:
                    d = x._denominator * y._denominator
                    if d == den:
                        num += a * b
                    elif den:
                        num, den = _pair_sum(num, den, a * b, d)
                    elif cn:
                        num, den = _pair_sum(cn, c._denominator, a * b, d)
                    else:
                        num, den = a * b, d
        elif x and y:
            if type(x) is FirstJet or type(y) is FirstJet:
                if jets is None:
                    jets = []
                jets.append((x, y))
            else:
                rest = x * y if rest is None else rest + x * y
    if type(c) is FirstJet and (jets or den or rest is not None):
        jets = [*(jets or ()), (c, 1)]      # c joins as the term c * 1
        c = None
    if jets is not None:
        return _jet_sum(jets, num, den, (None if cn and den else c, rest))
    if den:
        s = _fraction(num, den)
        rest = s if rest is None else rest + s
        if cn:      # c is in the integer sum
            return rest
    return rest + c if c and rest is not None else rest


def _jet_sum(terms, num, den, constants):
    """The FirstJet num/den + sum x * y over ``terms`` + the ``constants``,
    where ``terms`` are pairs with a FirstJet factor and no exact-zero
    factor, num/den is an integer sum (den = 0 when empty) and each
    constant is None, an int or a Fraction not yet in it.

    By the product rule a term u v contributes u dv + v du, or c du for a
    constant factor c: every value product joins num/den, and each tangent
    component sums its scaled components on an integer pair of its own,
    so the whole sum builds one FirstJet.
    """
    if not den:
        num, den = 0, 1
    x, y = terms[0]
    m = len((x if type(x) is FirstJet else y).grad)
    nums, dens = [0] * m, [1] * m     # the tangent sums, 0/1 while empty
    for x, y in terms:
        if type(x) is not FirstJet:
            x, y = y, x
        un, ud = _parts(x.value)
        if type(y) is FirstJet:
            vn, vd = _parts(y.value)
            if un:
                _add_scaled(nums, dens, un, ud, y.grad)
        else:
            vn, vd = _parts(y)
        if vn:
            _add_scaled(nums, dens, vn, vd, x.grad)
            if un:
                num, den = _pair_sum(num, den, un * vn, ud * vd)
    for c in constants:
        if c:
            num, den = _pair_sum(num, den, *_parts(c))
    return _jet(_fraction(num, den) if num else _ZERO, nums, dens)


def _quotient(u, du, v, dv):
    """The FirstJet u/v, with du or dv None for a constant u or v:
    d(u/v) = (du - q dv) / v, two passes of :func:`_add_scaled` into one
    tangent sum.  A constant u = 0 gives the exact Fraction 0, which a dot
    skips; ZeroDivisionError where v = 0."""
    vn, vd = _inverse_parts(v)
    un, ud = _parts(u)
    if du is None and not un:
        return _ZERO
    q = _fraction(un * vn, ud * vd)
    m = len(dv if du is None else du)
    nums, dens = [0] * m, [1] * m
    if du is not None:
        _add_scaled(nums, dens, vn, vd, du)
    if dv is not None and un:
        _add_scaled(nums, dens, -q._numerator * vn, q._denominator * vd, dv)
    return _jet(q, nums, dens)


def _add_scaled(nums, dens, sn, sd, grad):
    """nums/dens += (sn/sd) grad, component by component on integer pairs;
    a zero component of grad is skipped unread."""
    for k, t in enumerate(grad):
        a = t._numerator
        if a:
            nums[k], dens[k] = _pair_sum(nums[k], dens[k], sn * a, sd * t._denominator)


def _jet(value, nums, dens):
    """The FirstJet of ``value`` and the tangent sums nums/dens."""
    return FirstJet(value, tuple(_fraction(n, d) if n else _ZERO for n, d in zip(nums, dens)))


def row_minus(row, factor, pivot):
    """row - factor * pivot, leaving an entry alone where pivot is zero.
    Where factor and both entries are Fractions the new entry is one
    Fraction from one integer pair; other entries take their operators."""
    if type(factor) is not Fraction:
        return [(a - factor * b if a else -(factor * b)) if b else a
                for a, b in zip(row, pivot)]
    fn, fd = -factor._numerator, factor._denominator
    out = []
    for a, b in zip(row, pivot):
        if type(a) is Fraction and type(b) is Fraction:
            bn = b._numerator
            if bn:
                n, d = fn * bn, fd * b._denominator
                an = a._numerator
                if an:
                    n, d = _pair_sum(an, a._denominator, n, d)
                a = _fraction(n, d)
        elif b:
            a = a - factor * b if a else -(factor * b)
        out.append(a)
    return out


def normalize_scalar(value):
    """Canonical coefficient form: Fractions for real values."""
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return value.re
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"unsupported scalar {value!r}")


def scalar_conj(value):
    if isinstance(value, GaussianRational):
        return normalize_scalar(value.conjugate())
    return value


def require_real(value) -> Fraction:
    if isinstance(value, GaussianRational):
        if value.im != 0:
            raise NotRealCoefficients(
                f"value {scalar_str(value)} has nonzero imaginary part")
        return value.re
    return Fraction(value)


# the most bits one power x^e of an exact value may take, counted by
# power_bits: exact arithmetic on values of 100,000 bits and more takes
# seconds to minutes
MAX_POWER_BITS = 2 ** 15


def power_bits(x) -> int:
    """The bits one factor of a power of ``x`` may add: floor(log2 H) for a
    rational of height H = max(|p|, q), so 0 for 0 and +-1.  A Gaussian
    rational with both parts nonzero adds its two parts' bits plus 2; one
    with a zero part counts only the other part, since (b i)^e = b^e i^e,
    so a power of +-i costs nothing."""
    if isinstance(x, GaussianRational):
        if not x.re or not x.im:
            return power_bits(x.re or x.im)
        return power_bits(x.re) + power_bits(x.im) + 2
    p, q = x.as_integer_ratio()
    return (abs(p) | q).bit_length() - 1


def power(x, e: int):
    """x ** e for an exact scalar x and an int e >= 0, the one place the
    package raises an exact value to a power: SchemaViolation when
    e * power_bits(x) passes MAX_POWER_BITS, so 0 and +-1 pass at any e."""
    if e > 1 and e * power_bits(x) > MAX_POWER_BITS:
        raise SchemaViolation(f"exact power x^{e} of a {power_bits(x)}-bit x "
                              f"passes {MAX_POWER_BITS} bits")
    return x ** e


class PreparedPoint:
    """A point read by :func:`polynomial_at`: each rational coordinate split
    into its integer parts on its first read, and each power x_i^k
    (k >= 2) taken at most once, through :func:`power`.  Made for one call
    and dropped with it."""

    __slots__ = ("values", "bases", "_powers")

    def __init__(self, values):
        self.values = tuple(values)
        # per coordinate: (numerator, denominator) once read, a Gaussian value as it is
        self.bases = list(self.values)
        self._powers = {}

    def factor(self, i, k):
        """x_i^k for k >= 2: its (numerator, denominator), or a Gaussian
        power as it is."""
        x = self._powers.get((i, k))
        if x is None:
            x = power(self.values[i], k)
            if type(x) is not GaussianRational:
                x = _parts(x)
            self._powers[i, k] = x
        return x


def polynomial_at(pairs, at: PreparedPoint, order=0, value=True, start=0):
    """The value of sum c * x^e over the (e, c) pairs at the prepared point
    ``at`` and its derivatives up to ``order`` (0, 1 or 2) in the
    coordinates from ``start`` on, as (value, gradient, Hessian rows), each
    None where not asked for (the value where not ``value``), from one
    pass over the pairs; every entry is a canonical scalar.

    A monomial, or a derivative of one, that keeps a factor whose
    coordinate is an exact zero is 0 and takes no power; any other reads
    its factors in slot order, each power through
    :meth:`PreparedPoint.factor`.  A term whose coefficient and factors are
    rational joins its output's integer sum, and each output is one
    :func:`_fraction`; a term with a Gaussian coefficient or factor takes
    the operators, as in :func:`sum_of_products`, and its sum joins the
    integer sum last."""
    m = len(at.values) - start
    h0 = 1 + m          # the Hessian's (a, b) entry, a <= b, is output h0 + a m + b
    size = h0 + m * m if order == 2 else h0 if order else 1
    numer, denom = [0] * size, [1] * size
    rests = None        # per output, the sum of its terms that took the operators
    bases, factor = at.bases, at.factor
    # (output, slot a, slot b): a monomial's derivative by its support slots
    # a and b, twice where a == b, a slot -1 for none
    just_value = [(0, -1, -1)]
    for exps, c in pairs:
        # the term's (coordinate, exponent, coordinate value) triples, and
        # the slots among them whose coordinate is an exact zero; a term is
        # left at the first zero no output can differentiate away
        support, zeros = [], None
        for i, e in compress(enumerate(exps), exps):
            x = bases[i]
            if type(x) is tuple:
                zero = not x[0]
            elif type(x) is GaussianRational:
                zero = not x
            else:
                x = bases[i] = _parts(x)
                zero = not x[0]
            if zero:
                if i < start or len(zeros or ()) == order:
                    support = None
                    break
                zeros = [*(zeros or ()), len(support)]
            support.append((i, e, x))
        if support is None:
            continue
        if not order:
            wanted = just_value
        else:
            wanted = [(0, -1, -1)] if value else []
            for s, (i, _, _) in enumerate(support):
                if i >= start:
                    wanted.append((1 + i - start, s, -1))
                    if order == 2:
                        row = h0 + (i - start) * m - start
                        wanted += [(row + support[t][0], s, t) for t in range(s, len(support))]
        if zeros:       # keep the outputs that differentiate every zero factor away
            wanted = [w for w in wanted
                      if all((s == w[1]) + (s == w[2]) == support[s][1] for s in zeros)]
        for k, a, b in wanted:
            n = d = 1
            g = None
            for s, (i, e, x) in enumerate(support):
                if s == a or s == b:
                    if a == b:
                        if e < 2:
                            break
                        n *= e * (e - 1)
                        e -= 2
                    else:
                        n *= e
                        e -= 1
                    if not e:
                        continue
                if e > 1:
                    x = factor(i, e)
                if type(x) is tuple:
                    n *= x[0]
                    d *= x[1]
                else:
                    g = x if g is None else g * x
            else:
                if g is None and type(c) is not GaussianRational:
                    if type(c) is Fraction:
                        n *= c._numerator
                        d *= c._denominator
                    else:
                        cn, cd = _parts(c)
                        n *= cn
                        d *= cd
                    if not numer[k]:
                        numer[k], denom[k] = n, d
                    elif denom[k] == d:
                        numer[k] += n
                    else:
                        numer[k], denom[k] = _pair_sum(numer[k], denom[k], n, d)
                else:
                    t = c if g is None else g * c
                    if n != d:
                        t = t * _fraction(n, d)
                    if rests is None:
                        rests = [None] * size
                    rests[k] = t if rests[k] is None else rests[k] + t
    out = [_fraction(n, d) if n else _ZERO for n, d in zip(numer, denom)]
    if rests is not None:
        for k, rest in enumerate(rests):
            if rest is not None:
                out[k] = normalize_scalar(rest + out[k] if numer[k] else rest)
    hessian = None
    if order == 2:
        for a in range(m):      # the lower triangle mirrors the upper one
            for b in range(a):
                out[h0 + a * m + b] = out[h0 + b * m + a]
        hessian = tuple(tuple(out[r:r + m]) for r in range(h0, size, m))
    return (out[0] if value else None), (tuple(out[1:h0]) if order else None), hessian


def gaussian(re, im=0) -> GaussianRational:
    """The Gaussian rational re + i im, each part read once by :func:`rat`."""
    return _gaussian_parts(rat(re), rat(im))


# str() turns an int of up to _PIECE_DIGITS digits into text under any
# setting of CPython's int-to-str digit limit (its least value is 640)
_PIECE_DIGITS = 500
_PIECE = 10 ** _PIECE_DIGITS


def _digits(n: int) -> str:
    """The decimal digits of an int n >= 0 of any size: halves split off
    by one divmod each, and str() only on pieces under _PIECE."""
    if n < _PIECE:
        return str(n)
    k = n.bit_length() * 3 // 20   # about half the digits (log10 2 > 0.3)
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def rational_str(x: Fraction) -> str:
    """str(x) of a rational of any size, 'p' or 'p/q'.  It never changes
    the process-wide digit limit (sys.set_int_max_str_digits)."""
    if type(x) is Fraction:
        num, den = x._numerator, x._denominator
    else:
        num, den = x.numerator, x.denominator
    if -_PIECE < num < _PIECE and den < _PIECE:   # most values: str() on its own
        return str(num) if den == 1 else f"{num}/{den}"
    text = "-" + _digits(-num) if num < 0 else _digits(num)
    return text if den == 1 else f"{text}/{_digits(den)}"


def scalar_str(value) -> str:
    """Grammar-compatible rendering; complex values use the literal 'i'."""
    value = normalize_scalar(value)
    if isinstance(value, Fraction):
        return rational_str(value)
    re, im = value.re, value.im
    im_part = "i" if im == 1 else ("-i" if im == -1 else f"{rational_str(im)}*i")
    if re == 0:
        return im_part
    sign = "+" if im > 0 else "-"
    mag = im_part.lstrip("-")
    return f"({rational_str(re)}{sign}{mag})"
