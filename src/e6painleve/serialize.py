"""Parsing and encoding helpers: exact rationals as strings, CSV decimals.

A CSV decimal is the 20-digit Decimal quotient of numerator and
denominator, computed on integers: one division with a short quotient,
however many digits the state has, and no string conversion of a big
integer (so states past 4300 digits need no raised limit).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from .birational import ParamVector, ProjectiveCoord, SurfacePoint
from .models import SchlesingerParams


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def parse_coord(text: str) -> ProjectiveCoord:
    """A coordinate of P1: a rational, or the token inf for infinity."""
    if text.strip() == "inf":
        return ProjectiveCoord.infinity()
    return ProjectiveCoord.finite(parse_fraction(text))


def parse_fraction_list(text: str, expected: int | None = None, parse=parse_fraction) -> tuple:
    values = tuple(parse(part) for part in text.split(","))
    if expected is not None and len(values) != expected:
        raise ValueError(f"expected {expected} comma-separated rationals, got {len(values)}")
    return values


def parse_params(text: str) -> ParamVector:
    return ParamVector(parse_fraction_list(text, 8))


def parse_point(text: str) -> SurfacePoint:
    """f,g of P1 x P1; either coordinate may be inf."""
    return SurfacePoint(*parse_fraction_list(text, 2, parse_coord))


def parse_schlesinger(text: str) -> SchlesingerParams:
    vals = parse_fraction_list(text, 7)
    return SchlesingerParams(*vals)


def decimal_str(x: Fraction | ProjectiveCoord, digits: int = 20) -> str:
    """Decimal approximation with the stated number of significant digits.

    Decimal(numerator) / Decimal(denominator) at precision digits, done on
    integers: a quotient with a few guard digits, the shift read off the
    bit lengths (1292913986 / 2^32 is log10 2), a sticky digit 1 if it is
    inexact or its trailing zeros stripped toward exponent 0 if not, and
    one rounding by the context.  A finite ProjectiveCoord serves as x.
    """
    n, d = abs(x.numerator), x.denominator
    shift = digits + 2 - ((n.bit_length() - d.bit_length() - 1) * 1292913986 >> 32)
    coeff, rest = divmod(n * 10 ** shift, d) if shift >= 0 else divmod(n, d * 10 ** -shift)
    exp = -shift
    if rest:
        coeff, exp = coeff * 10 + 1, exp - 1
    while not rest and exp < 0 and coeff % 10 == 0:
        coeff, exp = coeff // 10, exp + 1
    with localcontext() as ctx:
        ctx.prec = digits
        return str(ctx.plus(Decimal((x.numerator < 0, tuple(map(int, str(coeff))), exp))))


def coord_decimal(c: ProjectiveCoord, digits: int = 20) -> str:
    return decimal_str(c, digits) if c.is_finite else "inf"
