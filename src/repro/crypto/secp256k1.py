"""Elliptic-curve arithmetic on secp256k1.

Ethereum accounts (and therefore Blockumulus cell and client identities) are
secp256k1 key pairs.  This module implements the group law in affine and
Jacobian coordinates together with scalar multiplication, which is all the
ECDSA layer (:mod:`repro.crypto.ecdsa`) needs.

Scalar multiplication is the cost of signing and recovery, so it takes the
usual shortcuts, in pure Python:

* ``k * G`` (signing, key derivation) reads one precomputed multiple of G
  per 4-bit window of ``k``: 64 mixed additions and no doublings.
* ``k * Q`` for another point splits ``k`` with the curve's endomorphism
  into two ~128-bit halves and walks their width-5 NAFs together.
* ``a * G + b * Q`` (verification, recovery) is one such walk over all
  four half-scalars, sharing its ~129 doublings, with one final inversion.

All of these return the same affine point as textbook double-and-add; the
differential tests in ``tests/crypto`` hold them to that.

The curve is ``y^2 = x^3 + 7`` over the prime field ``F_p`` with the standard
SEC2 parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

#: Field prime.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
#: Group order.
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
#: Curve coefficient ``b`` in ``y^2 = x^3 + b``.
B = 7
#: Generator point coordinates.
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

#: The endomorphism ``(x, y) -> (BETA * x, y)`` multiplies a point by ``LAMBDA``.
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# A short basis {(A1, B1), (A2, B2)} of the lattice {(i, j): i + j * LAMBDA = 0 mod N}.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


class InvalidPointError(ValueError):
    """Raised when coordinates do not satisfy the curve equation."""


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``x is None`` encodes the point at infinity."""

    x: int | None
    y: int | None

    def is_infinity(self) -> bool:
        """Return True if this is the identity element."""
        return self.x is None

    def __post_init__(self) -> None:
        if self.x is None:
            return
        if not (0 <= self.x < P and 0 <= self.y < P):
            raise InvalidPointError("coordinates out of field range")
        if (self.y * self.y - self.x * self.x * self.x - B) % P != 0:
            raise InvalidPointError("point is not on secp256k1")

    def encode(self, compressed: bool = False) -> bytes:
        """Serialize the point in SEC1 format (64-byte uncompressed by default)."""
        if self.is_infinity():
            raise InvalidPointError("cannot encode the point at infinity")
        if compressed:
            prefix = b"\x03" if self.y & 1 else b"\x02"
            return prefix + self.x.to_bytes(32, "big")
        return self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")


#: The identity element of the group.
INFINITY = Point(None, None)
#: The generator point.
GENERATOR = Point(GX, GY)


def _inverse_mod(value: int, modulus: int) -> int:
    """Return the modular inverse of ``value`` mod ``modulus``."""
    if value % modulus == 0:
        raise ZeroDivisionError("no inverse exists for zero")
    return pow(value, -1, modulus)


def point_add(p1: Point, p2: Point) -> Point:
    """Add two affine points on the curve."""
    if p1.is_infinity():
        return p2
    if p2.is_infinity():
        return p1
    if p1.x == p2.x and (p1.y + p2.y) % P == 0:
        return INFINITY
    if p1.x == p2.x:
        slope = (3 * p1.x * p1.x) * _inverse_mod(2 * p1.y, P) % P
    else:
        slope = (p2.y - p1.y) * _inverse_mod(p2.x - p1.x, P) % P
    x3 = (slope * slope - p1.x - p2.x) % P
    y3 = (slope * (p1.x - x3) - p1.y) % P
    return Point(x3, y3)


def _jacobian_double(x: int, y: int, z: int) -> tuple[int, int, int]:
    if y == 0 or z == 0:
        return 0, 1, 0
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return nx, ny, nz


def _jacobian_add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int
) -> tuple[int, int, int]:
    """Add the affine point ``(x2, y2)`` to a Jacobian point (mixed addition)."""
    if z1 == 0:
        return x2, y2, 1
    z1sq = (z1 * z1) % P
    h = (x2 * z1sq - x1) % P
    r = (y2 * z1sq * z1 - y1) % P
    if h == 0:
        if r == 0:
            return _jacobian_double(x1, y1, z1)
        return 0, 1, 0
    hsq = (h * h) % P
    hcu = (h * hsq) % P
    x1hsq = (x1 * hsq) % P
    nx = (r * r - hcu - 2 * x1hsq) % P
    ny = (r * (x1hsq - nx) - y1 * hcu) % P
    return nx, ny, (z1 * h) % P


def _to_affine_batch(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Normalise finite Jacobian points with a single inversion (Montgomery's trick)."""
    prefixes = []
    product = 1
    for _x, _y, z in points:
        prefixes.append(product)
        product = (product * z) % P
    inverse = _inverse_mod(product, P)
    affine = [(0, 0)] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = (inverse * prefixes[index]) % P
        inverse = (inverse * z) % P
        z_inv_sq = (z_inv * z_inv) % P
        affine[index] = ((x * z_inv_sq) % P, (y * z_inv_sq * z_inv) % P)
    return affine


def _from_jacobian(x: int, y: int, z: int) -> Point:
    if z == 0:
        return INFINITY
    z_inv = _inverse_mod(z, P)
    z_inv_sq = (z_inv * z_inv) % P
    return Point((x * z_inv_sq) % P, (y * z_inv_sq * z_inv) % P)


@cache
def _generator_table() -> list[list[tuple[int, int]]]:
    """Fixed-base table for G, built on first use (about 16 ms).

    Row ``i`` holds ``j * 16**i * G`` for ``j = 1..15`` as affine ``(x, y)``
    pairs, so each 4-bit window of a scalar selects one entry to add.
    """
    rows = []
    bx, by = GX, GY
    for _row in range(64):
        multiples = [(bx, by, 1)]
        for _j in range(15):
            multiples.append(_jacobian_add_affine(*multiples[-1], bx, by))
        # The 16th entry is the next row's base, 16 * (this row's base).
        *row, (bx, by) = _to_affine_batch(multiples)
        rows.append(row)
    return rows


def _generator_multiple(scalar: int) -> tuple[int, int, int]:
    """Return Jacobian ``scalar * G`` for ``0 <= scalar < 16**64``: one addition per nibble."""
    x, y, z = 0, 1, 0
    for row in _generator_table():
        digit = scalar & 15
        if digit:
            x, y, z = _jacobian_add_affine(x, y, z, *row[digit - 1])
        scalar >>= 4
    return x, y, z


def _wnaf(scalar: int, width: int) -> list[int]:
    """Width-``width`` non-adjacent form of ``scalar``, least significant digit first.

    Every digit is 0 or odd with absolute value below ``2**(width - 1)``,
    and a negative ``scalar`` gives the negated digits of ``-scalar``.
    """
    window = 1 << width
    digits = []
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & (window - 1)
            if digit > window >> 1:
                digit -= window
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    return digits


def _split(scalar: int) -> tuple[int, int]:
    """Split ``scalar`` into ``(k1, k2)`` with ``k1 + k2 * LAMBDA = scalar (mod N)``.

    Both halves are signed and below ``2**129`` in absolute value (the
    rounded lattice reduction of the GLV method).
    """
    c1 = (_B2 * scalar + N // 2) // N
    c2 = (-_B1 * scalar + N // 2) // N
    return scalar - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _digit_table(px: int, py: int, width: int) -> list[tuple[int, int]]:
    """Affine ``digit * (px, py)`` at index ``digit`` for every odd wNAF digit.

    Negative digits index from the end of the list, so ``table[-3]`` is
    ``-3 * (px, py)``; even indices are unused.
    """
    multiples = [(px, py, 1)]
    for _ in range((1 << (width - 1)) - 2):
        multiples.append(_jacobian_add_affine(*multiples[-1], px, py))
    table = [(0, 0)] * (1 << width)
    for index, (x, y) in enumerate(_to_affine_batch(multiples[::2])):
        table[2 * index + 1] = (x, y)
        table[-2 * index - 1] = (x, P - y)
    return table


def _endomorphism(table: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``LAMBDA * Q`` for every ``Q`` in ``table``: ``(x, y) -> (BETA * x, y)``, no additions."""
    return [((BETA * x) % P, y) for x, y in table]


#: wNAF width of the multiples of the point in a variable-base multiplication.
_VARIABLE_WIDTH = 5
#: wNAF width of the fixed tables of G and LAMBDA * G used by double-scalar passes.
_GENERATOR_WIDTH = 8


@cache
def _generator_digit_tables() -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Digit tables of G and LAMBDA * G at ``_GENERATOR_WIDTH``, built on first use."""
    table = _digit_table(GX, GY, _GENERATOR_WIDTH)
    return table, _endomorphism(table)


def _generator_terms(scalar: int) -> list[tuple[int, list[tuple[int, int]], int]]:
    """The two half-scalar terms of ``scalar * G`` for :func:`_sum_of_multiples`."""
    k1, k2 = _split(scalar)
    table, lambda_table = _generator_digit_tables()
    return [(k1, table, _GENERATOR_WIDTH), (k2, lambda_table, _GENERATOR_WIDTH)]


def _variable_terms(scalar: int, point: Point) -> list[tuple[int, list[tuple[int, int]], int]]:
    """The two half-scalar terms of ``scalar * point`` for :func:`_sum_of_multiples`."""
    k1, k2 = _split(scalar)
    table = _digit_table(point.x, point.y, _VARIABLE_WIDTH)
    return [(k1, table, _VARIABLE_WIDTH), (k2, _endomorphism(table), _VARIABLE_WIDTH)]


def _sum_of_multiples(
    terms: list[tuple[int, list[tuple[int, int]], int]]
) -> tuple[int, int, int]:
    """Return Jacobian ``sum(k * Q)`` over ``(k, table of Q, width)`` with shared doublings.

    Each scalar (at most about 129 bits after :func:`_split`) is written in
    wNAF; one left-to-right pass doubles the accumulator once per digit
    position and adds ``table[digit]`` for every non-zero digit.
    """
    streams = [(_wnaf(scalar, width), table) for scalar, table, width in terms]
    length = max(len(digits) for digits, _ in streams)
    streams = [(digits + [0] * (length - len(digits)), table) for digits, table in streams]
    x, y, z = 0, 1, 0
    for index in range(length - 1, -1, -1):
        x, y, z = _jacobian_double(x, y, z)
        for digits, table in streams:
            digit = digits[index]
            if digit:
                x, y, z = _jacobian_add_affine(x, y, z, *table[digit])
    return x, y, z


def scalar_multiply(scalar: int, point: Point = GENERATOR) -> Point:
    """Compute ``scalar * point``; multiples of G use the fixed-base table."""
    scalar %= N
    if scalar == 0 or point.is_infinity():
        return INFINITY
    if point == GENERATOR:
        return _from_jacobian(*_generator_multiple(scalar))
    return _from_jacobian(*_sum_of_multiples(_variable_terms(scalar, point)))


def double_scalar_multiply(a: int, b: int, point: Point) -> Point:
    """Compute ``a * G + b * point`` in one pass, with a single final inversion."""
    a %= N
    b %= N
    terms = []
    if a:
        terms += _generator_terms(a)
    if b and not point.is_infinity():
        terms += _variable_terms(b, point)
    if not terms:
        return INFINITY
    return _from_jacobian(*_sum_of_multiples(terms))


def decode_point(data: bytes) -> Point:
    """Decode a 64-byte uncompressed or 33-byte compressed SEC1 point."""
    if len(data) == 64:
        return Point(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))
    if len(data) == 65 and data[0] == 0x04:
        return decode_point(data[1:])
    if len(data) == 33 and data[0] in (0x02, 0x03):
        x = int.from_bytes(data[1:], "big")
        y_sq = (pow(x, 3, P) + B) % P
        y = pow(y_sq, (P + 1) // 4, P)
        if (y * y) % P != y_sq:
            raise InvalidPointError("x coordinate has no square root on the curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return Point(x, y)
    raise InvalidPointError(f"unsupported point encoding of length {len(data)}")


def recover_y(x: int, is_odd: bool) -> int:
    """Recover the y coordinate for ``x`` with the requested parity."""
    y_sq = (pow(x, 3, P) + B) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        raise InvalidPointError("x coordinate is not on the curve")
    if (y & 1) != int(is_odd):
        y = P - y
    return y
