"""The exact layer's Fraction constructor and the Fraction layout it writes."""
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from diskeds.errors import DiskEdsError
from diskeds.exact import FRACTION_SLOTS, _fraction, rat
from oracles import rat_by_fraction_constructor

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


def _outcome(parse, value):
    """What ``parse(value)`` gives: the Fraction's type, value, parts and
    hash, or the error's type and message."""
    try:
        x = parse(value)
    except DiskEdsError as exc:
        return type(exc), str(exc)
    return type(x), x, x.numerator, x.denominator, hash(x)


# digit runs: short, and 4,000 digits (under int()'s default limit of 4,300)
_digit_runs = st.one_of(st.integers(0, 10 ** 6), st.integers(10 ** 3999, 10 ** 4000 - 1)).map(str)


@st.composite
def _rational_texts(draw):
    """'p' or 'p/q' with a sign or none, leading zeros on both parts, a
    zero denominator now and then, and spaces around the whole text."""
    text = draw(st.sampled_from(("", "+", "-"))) + "0" * draw(st.integers(0, 2)) + draw(_digit_runs)
    if draw(st.booleans()):
        text += "/" + "0" * draw(st.integers(0, 2)) + draw(st.one_of(st.just("0"), _digit_runs))
    pad = draw(st.sampled_from(("", " ", "\t", "\n ")))
    return pad + text + pad


@given(st.one_of(_rational_texts(), st.integers(-BIG, BIG), st.booleans(), st.fractions(),
                 st.floats(allow_nan=False), st.none(),
                 st.lists(st.integers(), max_size=2), st.dictionaries(st.text(), st.integers()),
                 st.text(alphabet="0123456789+-/ ._\u0661\u00b2\xa0\u2003", max_size=8)))
@example("-0")
@example("007/0")
@example("0/000")
@example("+12/18")
@example("1" * 5000)
@example("1/" + "1" * 5000)
@example(True)
@example(None)
@example([])
@example({})
@example(-(10 ** 4000))
@example("\u0661\u0662")
@example("\xa0-7\u2003")
@example("\u00b2")
@example("\u0661/\u0663")
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
def test_rat_is_the_fraction_constructor_oracle(value):
    # the same Fraction in value, exact type, parts and hash, or the same
    # error with the same message
    assert _outcome(rat, value) == _outcome(rat_by_fraction_constructor, value)


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
