"""A cost counter that sees both Fraction's operators and the integer kernels.

Fraction's binary operators read each Fraction operand's denominator
through the public ``denominator`` property, and so do the integer kernels
of ``diskeds.exact`` (``sum_of_products``, ``row_minus`` and the FirstJet
gradient rules), which read it only for a term they keep.  Counting those
reads counts the Fraction operands exact arithmetic takes in, whichever
path takes them, and a read of an exact zero's denominator is work spent
on a zero.  Comparisons and the report writer read denominators too and
are not counted.
"""
import contextlib
import sys
from fractions import Fraction

from diskeds.exact import rational_str

_NOT_ARITHMETIC = {Fraction.__eq__.__code__, Fraction._richcmp.__code__,
                   rational_str.__code__}


@contextlib.contextmanager
def fraction_operands(counting=lambda: True):
    """Yield [operands, zero operands], counted while the block runs and
    ``counting()`` is true."""
    counts = [0, 0]
    real = Fraction.denominator

    def denominator(x):
        if counting() and sys._getframe(1).f_code not in _NOT_ARITHMETIC:
            counts[0] += 1
            counts[1] += x.numerator == 0
        return real.fget(x)

    Fraction.denominator = property(denominator)
    try:
        yield counts
    finally:
        Fraction.denominator = real
