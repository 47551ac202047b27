"""The exact layer's Fraction constructor and the Fraction layout it writes."""
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from diskeds.exact import FRACTION_SLOTS, _fraction

SRC = Path(__file__).resolve().parent.parent / "src"
BIG = 2 ** 4000


def _view(x):
    return type(x), x, x.numerator, x.denominator, hash(x), repr(x)


_ints = st.one_of(st.integers(-50, 50), st.integers(-BIG, BIG))
_positive = st.one_of(st.integers(1, 50), st.integers(1, BIG))


@given(_ints, _positive, _positive)
@example(0, 1, 1)
@example(0, 7, 3)
@example(1, 1, 1)
@example(-1, 1, 1)
@example(-12, 1, 1)
@example(-12, 18, 1)
@example(6, 4, 35)
@example(BIG - 1, BIG + 1, 1)
@example(-(BIG + 1), 3, BIG - 1)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_fraction_is_the_constructor(n, d, k):
    # n/d and n k/d k, which shares the factor k: the same Fraction as
    # Fraction(n, d) in type, value, parts, hash and repr
    for num, den in ((n, d), (n * k, d * k)):
        assert _view(_fraction(num, den)) == _view(Fraction(num, den))


def test_fraction_keeps_its_parts_in_the_slots_the_kernels_read():
    assert Fraction.__slots__ == FRACTION_SLOTS == ("_numerator", "_denominator")
    x = Fraction(-6, 4)
    assert (x._numerator, x._denominator) == (-3, 2)


def test_importing_exact_checks_the_fraction_layout():
    code = ("import fractions, sys; sys.path.insert(0, sys.argv[1]); "
            "fractions.Fraction.__slots__ = ('_numerator', '_denominator', '_hash'); "
            "import diskeds.exact")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True)
    assert done.returncode == 1
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: diskeds needs fractions.Fraction laid out as the slots")
    assert f"{sys.implementation.name} {platform.python_version()} has" in last
    assert "'_hash'" in last
