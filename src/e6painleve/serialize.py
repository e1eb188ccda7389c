"""Parsing and encoding helpers: exact rationals as strings, CSV decimals."""

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


def decimal_str(x: Fraction, digits: int = 20) -> str:
    """Decimal approximation with the stated number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def coord_decimal(c: ProjectiveCoord, digits: int = 20) -> str:
    return decimal_str(c.as_fraction(), digits) if c.is_finite else "inf"
