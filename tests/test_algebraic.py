import time
from fractions import Fraction

import pytest

from jointfeas.algebraic import (
    _SQUARE_FACTOR_BOUND,
    Surd,
    as_fraction,
    enclosure,
    make_surd,
    sqrt_fraction,
)
from jointfeas.errors import UnsupportedNumberError, ValidationError
from jointfeas.files import encode_exact


def test_as_fraction_spellings():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-2") == Fraction(-2)
    assert as_fraction(5) == Fraction(5)
    with pytest.raises(ValidationError):
        as_fraction("not-a-number")
    with pytest.raises(ValidationError):
        as_fraction(0.5)  # floats are rejected


def test_sqrt_collapses_perfect_squares():
    assert sqrt_fraction("4/9") == Fraction(2, 3)
    assert sqrt_fraction(36) == 6
    root = sqrt_fraction("3/4")
    assert isinstance(root, Surd)
    assert root.d == 3 and root.b == Fraction(1, 2)


def test_radicand_normalization():
    # sqrt(12) = 2 sqrt(3)
    v = make_surd(Fraction(0), Fraction(1), 12)
    assert isinstance(v, Surd) and v.d == 3 and v.b == 2


def test_arithmetic_stays_in_field():
    r3 = sqrt_fraction(3)
    v = (1 + r3) * (2 - r3)  # 2 - sqrt3 + 2 sqrt3 - 3 = -1 + sqrt3
    assert isinstance(v, Surd)
    assert v.a == -1 and v.b == 1 and v.d == 3
    assert (r3 * r3) == Fraction(3)
    with pytest.raises(UnsupportedNumberError, match=r"sqrt\(2\) with sqrt\(3\)"):
        _ = r3 + sqrt_fraction(2)
    with pytest.raises(UnsupportedNumberError, match=r"sqrt\(2\) with sqrt\(3\)"):
        _ = sqrt_fraction(2) + r3


def test_exact_signs_and_comparisons():
    r3 = sqrt_fraction(3)
    assert Fraction(3, 2) < r3  # sqrt3 > 1.5
    assert r3 < Fraction(7, 4)  # sqrt3 < 1.75
    assert (r3 / 2) > Fraction(4, 5)
    assert abs(-r3) == r3
    assert min(Fraction(1, 2), r3 - 1, Fraction(2)) == Fraction(1, 2)
    # sqrt3 - 1 ~ 0.732 > 1/2
    assert min(r3 - 1, Fraction(0)) == Fraction(0)


def test_enclosure_width_and_membership():
    r2 = sqrt_fraction(2)
    width = Fraction(1, 10**12)
    lo, hi = enclosure(r2, width)
    assert hi - lo <= width
    assert lo * lo <= 2 <= hi * hi
    value = -3 * r2  # negative coefficient flips the interval
    lo, hi = enclosure(value, width)
    assert lo < hi and hi < 0
    assert float(value) == pytest.approx(-4.242640687, abs=1e-8)


def test_rational_enclosure_is_degenerate():
    assert enclosure(Fraction(5, 7)) == (Fraction(5, 7), Fraction(5, 7))


@pytest.mark.parametrize("prime", [100000000000031, 10**29 + 319])
def test_big_prime_radicands_return_quickly(prime):
    start = time.perf_counter()
    root = sqrt_fraction(prime)
    assert time.perf_counter() - start < 0.1
    assert isinstance(root, Surd) and (root.b, root.d) == (1, prime)
    assert root * root == prime


def test_square_factor_above_the_bound_still_cancels():
    p, q = 1009, 3  # p is a prime above the trial-division bound
    assert p > _SQUARE_FACTOR_BOUND
    big, small = sqrt_fraction(p * p * q), p * sqrt_fraction(q)
    assert big - small == 0 and small - big == 0
    assert big == small and hash(big) == hash(small)
    assert big / small == 1 and big * small == p * p * q
    assert sqrt_fraction(p * p) == p  # a perfect-square cofactor is absorbed
    with pytest.raises(UnsupportedNumberError):
        _ = big + sqrt_fraction(2)


def test_two_spellings_of_one_field_meet_over_the_smaller_radicand():
    p = 1009  # above the trial-division bound: sqrt(p*p*3) keeps its square factor
    quarter = sqrt_fraction(3) / 4
    spelled = sqrt_fraction(p * p * 3) / (4 * p)  # the same value over p*p*3
    assert (quarter.d, spelled.d) == (3, p * p * 3) and quarter == spelled
    third = Surd(Fraction(1), Fraction(2, p), p * p * 3)  # 1 + 2*sqrt(3)
    results = [
        (quarter + spelled, spelled + quarter),
        (third - quarter, -(quarter - third)),
        (quarter * third, third * quarter),
        (third / quarter, third * 4 / sqrt_fraction(3)),
        ((spelled + third) + quarter, spelled + (third + quarter)),
    ]
    for left, right in results:
        assert isinstance(left, Surd) and left.d == right.d == 3
        assert str(left) == str(right)
    assert str(quarter + spelled) == "0 + 1/2*sqrt(3)"
    assert str(third + quarter) == "1 + 9/4*sqrt(3)"
    assert quarter - spelled == 0 and spelled - quarter == 0
    assert quarter < third and third > spelled and not quarter < spelled


def test_a_cancelled_partial_result_keeps_the_other_spelling():
    # Allowed: (q - q) is the rational 0, so (q - q) + s keeps s's
    # radicand, while (q + s) - q meets over the smaller one.  The text
    # and the report interval differ; equality, hash, order and the
    # report poly agree.
    p = 1009  # above the trial-division bound
    q = sqrt_fraction(3) / 4
    s = sqrt_fraction(p * p * 3) / (4 * p)
    late, early = (q - q) + s, (q + s) - q
    assert (late.d, early.d) == (p * p * 3, 3)
    assert str(late) == "0 + 1/4036*sqrt(3054243)" and str(early) == "0 + 1/4*sqrt(3)"
    assert late == early and hash(late) == hash(early)
    assert late <= early <= late and not late < early and not early < late
    assert late - early == 0
    late_json, early_json = encode_exact(late), encode_exact(early)
    assert late_json["poly"] == early_json["poly"] == ["-3/16", "0", "1"]
    assert late_json["interval"] != early_json["interval"]
