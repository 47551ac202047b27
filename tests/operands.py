"""A cost counter that sees both Fraction's operators and the integer kernels.

Fraction's binary operators read each Fraction operand's denominator
through the public ``denominator`` property.  The integer kernels of
``diskeds.exact`` (``sum_of_products``, ``row_minus`` and the FirstJet
gradient rules) read it off Fraction's ``_denominator`` slot, and only for
a term they keep.  Counting both reads, the slot's only where the reading
frame is in ``diskeds/exact.py``, counts the Fraction operands exact
arithmetic takes in, whichever path takes them, and a read of an exact
zero's denominator is work spent on a zero.  Comparisons and the report
writer (``rational_str``, which reads the slots) read denominators too
and are not counted on either path; nor are Fraction's own slot reads
under its public properties and operators.
"""
import contextlib
import sys
from fractions import Fraction

from diskeds import exact
from diskeds.exact import rational_str

_NOT_ARITHMETIC = {Fraction.__eq__.__code__, Fraction._richcmp.__code__,
                   rational_str.__code__}


@contextlib.contextmanager
def fraction_operands(counting=lambda: True):
    """Yield [operands, zero operands], counted while the block runs and
    ``counting()`` is true."""
    counts = [0, 0]
    real, slot = Fraction.denominator, Fraction._denominator

    def count(x):
        counts[0] += 1
        counts[1] += x.numerator == 0

    def denominator(x):
        if counting() and sys._getframe(1).f_code not in _NOT_ARITHMETIC:
            count(x)
        return real.fget(x)

    def slot_read(x):
        code = sys._getframe(1).f_code
        if counting() and code.co_filename == exact.__file__ and code not in _NOT_ARITHMETIC:
            count(x)
        return slot.__get__(x)

    Fraction.denominator = property(denominator)
    Fraction._denominator = property(slot_read, slot.__set__)
    try:
        yield counts
    finally:
        Fraction._denominator = slot
        Fraction.denominator = real
