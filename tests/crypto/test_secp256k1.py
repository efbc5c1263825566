"""secp256k1 group arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.secp256k1 import (
    GENERATOR,
    INFINITY,
    InvalidPointError,
    N,
    P,
    Point,
    decode_point,
    double_scalar_multiply,
    point_add,
    recover_y,
    scalar_multiply,
)


def test_generator_is_on_curve():
    assert (GENERATOR.y ** 2 - GENERATOR.x ** 3 - 7) % P == 0


def test_off_curve_point_rejected():
    with pytest.raises(InvalidPointError):
        Point(1, 1)


def test_point_addition_identity():
    assert point_add(GENERATOR, INFINITY) == GENERATOR
    assert point_add(INFINITY, GENERATOR) == GENERATOR


def test_addition_of_inverse_is_infinity():
    negated = Point(GENERATOR.x, P - GENERATOR.y)
    assert point_add(GENERATOR, negated).is_infinity()


def test_doubling_matches_scalar_two():
    doubled = point_add(GENERATOR, GENERATOR)
    assert doubled == scalar_multiply(2)


def test_scalar_multiplication_distributes():
    # (3 + 5) * G == 3*G + 5*G
    left = scalar_multiply(8)
    right = point_add(scalar_multiply(3), scalar_multiply(5))
    assert left == right


def test_order_times_generator_is_infinity():
    assert scalar_multiply(N).is_infinity()


def test_scalar_zero_is_infinity():
    assert scalar_multiply(0).is_infinity()


def test_known_multiple():
    # 2*G from the SEC2 test data.
    doubled = scalar_multiply(2)
    assert doubled.x == 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5
    assert doubled.y == 0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A


def test_encode_decode_uncompressed_roundtrip():
    point = scalar_multiply(123456789)
    assert decode_point(point.encode()) == point


def test_encode_decode_compressed_roundtrip():
    point = scalar_multiply(987654321)
    assert decode_point(point.encode(compressed=True)) == point


def test_decode_rejects_bad_length():
    with pytest.raises(InvalidPointError):
        decode_point(b"\x02" * 10)


def test_recover_y_parities():
    point = scalar_multiply(42)
    assert recover_y(point.x, bool(point.y & 1)) == point.y
    assert recover_y(point.x, not bool(point.y & 1)) == P - point.y


def test_encode_infinity_rejected():
    with pytest.raises(InvalidPointError):
        INFINITY.encode()


# --- Differential checks against a plain double-and-add reference ----------


def _reference_add(p1, p2):
    """Affine addition straight from the group law (None is the identity)."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        slope = 3 * x1 * x1 * pow(2 * y1, -1, P) % P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (slope * slope - x1 - x2) % P
    return x3, (slope * (x1 - x3) - y1) % P


def _reference_multiply(scalar, point):
    """Right-to-left double-and-add over affine coordinates."""
    result, addend = None, point
    scalar %= N
    while scalar:
        if scalar & 1:
            result = _reference_add(result, addend)
        addend = _reference_add(addend, addend)
        scalar >>= 1
    return result


def _as_tuple(point):
    return None if point.is_infinity() else (point.x, point.y)


OTHER = scalar_multiply(0xC0FFEE)
EDGE_SCALARS = [0, 1, 2, N - 1, N, N + 5, 2**255] + [
    int("F" * nibbles, 16) for nibbles in range(1, 65)
] + [int("F0" * 32, 16), int("0F" * 32, 16)]


@pytest.mark.parametrize("base", [GENERATOR, OTHER], ids=["G", "other"])
def test_scalar_multiply_matches_reference(base):
    for scalar in EDGE_SCALARS:
        expected = _reference_multiply(scalar, (base.x, base.y))
        assert _as_tuple(scalar_multiply(scalar, base)) == expected, hex(scalar)


def test_scalar_multiply_of_an_equal_copy_of_the_generator():
    scalar = 0x1234567890ABCDEF << 100
    copy = Point(GENERATOR.x, GENERATOR.y)
    assert _as_tuple(scalar_multiply(scalar, copy)) == _reference_multiply(
        scalar, (GENERATOR.x, GENERATOR.y)
    )


def test_double_scalar_multiply_matches_reference():
    for a, b in [(3, 5), (N - 1, N - 1), (2**255, 2**200 + 7), (N + 5, 1)]:
        expected = _reference_add(
            _reference_multiply(a, (GENERATOR.x, GENERATOR.y)),
            _reference_multiply(b, (OTHER.x, OTHER.y)),
        )
        assert _as_tuple(double_scalar_multiply(a, b, OTHER)) == expected


@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 2**256), b=st.integers(0, 2**256))
def test_double_scalar_multiply_matches_reference_on_random_scalars(a, b):
    expected = _reference_add(
        _reference_multiply(a, (GENERATOR.x, GENERATOR.y)),
        _reference_multiply(b, (OTHER.x, OTHER.y)),
    )
    assert _as_tuple(double_scalar_multiply(a, b, OTHER)) == expected
    assert _as_tuple(scalar_multiply(b, OTHER)) == _reference_multiply(b, (OTHER.x, OTHER.y))


def test_double_scalar_multiply_with_a_zero_scalar():
    assert double_scalar_multiply(0, 77, OTHER) == scalar_multiply(77, OTHER)
    assert double_scalar_multiply(77, 0, OTHER) == scalar_multiply(77)
    assert double_scalar_multiply(0, 0, OTHER).is_infinity()
    assert double_scalar_multiply(N, N, OTHER).is_infinity()


def test_double_scalar_multiply_with_the_infinity_point():
    assert double_scalar_multiply(77, 5, INFINITY) == scalar_multiply(77)
    assert double_scalar_multiply(0, 5, INFINITY).is_infinity()


def test_double_scalar_multiply_summing_to_infinity():
    # OTHER = c * G, so a * G + b * OTHER = O when a = -b * c (mod N).
    b = 0xDEADBEEF
    assert double_scalar_multiply(-b * 0xC0FFEE, b, OTHER).is_infinity()


def test_double_scalar_multiply_of_the_generator_doubles():
    # a * G + b * G hits the doubling case of the mixed addition.
    assert double_scalar_multiply(1, 1, GENERATOR) == scalar_multiply(2)
    assert double_scalar_multiply(5, N - 5, GENERATOR).is_infinity()
