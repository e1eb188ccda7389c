"""Exact birational realization of the group generators on parameters and points.

Each generator acts on the family data (b1..b8; f, g): a linear map on the
eight blowup-position parameters and a pair of rational coordinate maps on
the affine chart of P1 x P1.  Every generator fixes b4 and the parameter sum
(the gauge normalization that makes the maps compose as a group).  The
parameter action is not tabulated: it is induced through the period map from
the generator's lattice action on the symmetry roots, read off once per
generator on the eight unit vectors as integer rows (new b_k = sum of c b_j),
and then applied as those rows.

Points are held projectively: a coordinate is a pair (num : den) with den
normalized to 0 or 1, so outputs at infinity are first-class values, while
0/0 signals that the evaluation hit an indeterminate point of the map and
raises.  Coordinate formulas are stored as small expression trees over the
variables f, g, b1..b8; these trees are the single table of the formulas
(gens prints them).  Each tree is compiled once per generator, on first
use, into nested closures over plain Fractions, and a step whose point is
finite evaluates both coordinates in that one pass.  The projective walk of
the trees runs only when an input coordinate is at infinity or a
denominator of the compiled pass vanishes; it gives the same values
wherever the plain pass is defined, and decides infinity and base points
(Indeterminate) everywhere else, so chains of generators stay exact end to
end.

Equality of composed maps is decided by seeded random evaluation: two chains
agreeing at generic rational samples are equal with overwhelming probability
(randomized polynomial identity testing), and every agreement check here is
exact, never approximate.  Every sampling loop stops with
TooManyDegenerateSamples once more than 90 percent of its draws were
rejected (check_rejection_rate).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .periodmap import ParamVector, params_from_root_variables, root_variable_evolution, root_variables
from .weylgroup import PicMap, generator_picmap, SYMBOLS


class Indeterminate(ArithmeticError):
    """Evaluation produced 0/0 (the input hit a base point of the map)."""

    def __init__(self, message: str, step_index: int | None = None, symbol: str | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.symbol = symbol


class TooManyDegenerateSamples(RuntimeError):
    """Random sampling rejected more than 90 percent of its draws."""


_ONE = Fraction(1)


@dataclass(frozen=True)
class ProjectiveCoord:
    """Point of P1 as a pair (num : den), normalized so den is 0 or 1."""

    num: Fraction
    den: Fraction

    def __post_init__(self) -> None:
        num, den = Fraction(self.num), Fraction(self.den)
        if den != 0:
            num, den = num / den, Fraction(1)
        elif num != 0:
            num, den = Fraction(1), Fraction(0)
        else:
            raise Indeterminate("0/0 is not a point of P1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def finite(cls, value) -> "ProjectiveCoord":
        # A finite value is already normalized; only non-Fractions are coerced.
        coord = object.__new__(cls)
        object.__setattr__(coord, "num", value if type(value) is Fraction else Fraction(value))
        object.__setattr__(coord, "den", _ONE)
        return coord

    @classmethod
    def infinity(cls) -> "ProjectiveCoord":
        return cls(Fraction(1), Fraction(0))

    @property
    def is_finite(self) -> bool:
        return self.den != 0

    def as_fraction(self) -> Fraction:
        if not self.is_finite:
            raise ValueError("coordinate is at infinity")
        return self.num

    def __add__(self, other: "ProjectiveCoord") -> "ProjectiveCoord":
        return ProjectiveCoord(
            self.num * other.den + self.den * other.num, self.den * other.den
        )

    def __neg__(self) -> "ProjectiveCoord":
        return ProjectiveCoord(-self.num, self.den)

    def __sub__(self, other: "ProjectiveCoord") -> "ProjectiveCoord":
        return self + (-other)

    def __mul__(self, other: "ProjectiveCoord") -> "ProjectiveCoord":
        return ProjectiveCoord(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "ProjectiveCoord") -> "ProjectiveCoord":
        return ProjectiveCoord(self.num * other.den, self.den * other.num)

    def __str__(self) -> str:
        return str(self.num) if self.is_finite else "inf"

    def to_json(self) -> dict[str, str]:
        return {"n": str(self.num.numerator), "d": str(self.num.denominator if self.is_finite else 0)}


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class Expr:
    """Rational expression over f, g, b1..b8 with exact projective evaluation."""

    def evaluate(self, env: Mapping[str, ProjectiveCoord]) -> ProjectiveCoord:
        raise NotImplementedError

    def __add__(self, other) -> "Expr":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other) -> "Expr":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other) -> "Expr":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other) -> "Expr":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other) -> "Expr":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other) -> "Expr":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other) -> "Expr":
        return BinOp("/", as_expr(other), self)

    def __neg__(self) -> "Expr":
        return BinOp("-", Const(Fraction(0)), self)


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def evaluate(self, env: Mapping[str, ProjectiveCoord]) -> ProjectiveCoord:
        return ProjectiveCoord.finite(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def evaluate(self, env: Mapping[str, ProjectiveCoord]) -> ProjectiveCoord:
        return env[self.name]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, env: Mapping[str, ProjectiveCoord]) -> ProjectiveCoord:
        return _OPERATORS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(Fraction(x))


F = Var("f")
G = Var("g")
B1, B2, B3, B4, B5, B6, B7, B8 = (Var(f"b{i}") for i in range(1, 9))


@dataclass(frozen=True)
class SurfacePoint:
    """Point (f, g) of P1 x P1, each coordinate projective."""

    f: ProjectiveCoord
    g: ProjectiveCoord

    @classmethod
    def affine(cls, f, g) -> "SurfacePoint":
        return cls(ProjectiveCoord.finite(f), ProjectiveCoord.finite(g))

    @property
    def is_finite(self) -> bool:
        return self.f.is_finite and self.g.is_finite

    def to_json(self) -> dict[str, dict[str, str]]:
        return {"f": self.f.to_json(), "g": self.g.to_json()}


@dataclass(frozen=True)
class BirationalStep:
    """One elementary map: lattice action plus coordinate formulas."""

    name: str
    coord_f: Expr
    coord_g: Expr
    picmap: PicMap

    def apply_params(self, b: ParamVector) -> ParamVector:
        """Parameter action induced through the period map (b4 is fixed).

        Applies the generator's integer rows (param_rows) to b.
        """
        return ParamVector(tuple(_row_value(row, b.b) for row in param_rows(self.name)))


# Coordinate tables of the elementary maps (affine-chart formulas).
_COORD_TABLES: dict[str, tuple[Expr, Expr]] = {
    "w0": (F - B3 + B4, G + B3 - B4),
    "w1": (F, G),
    "w2": (F, G),
    "w3": (F, (F + B7) * (G + B1) / (F - B1) + B7),
    "w4": (F, G),
    "w5": ((F - B1) * (G - B5) / (G + B1) - B5, G),
    "w6": (F, G),
    "m0": (-G, -F),
    "m1": (
        -F + B4 - B8,
        (F * (G + B1) + B2 * (F - B1)) / (F + G) + B8 - B4,
    ),
    "m2": (
        (G * (F - B1) - B2 * (G + B1)) / (F + G) + B4 - B6,
        -G - B4 + B6,
    ),
    "r": (
        -((F * (G + B1) + B2 * (F - B1)) / (F + G)) + B4 - B8,
        F - B4 + B8,
    ),
    "r2": (
        G + B4 - B6,
        -((G * (F - B1) - B2 * (G + B1)) / (F + G)) - B4 + B6,
    ),
}


@lru_cache(maxsize=None)
def param_rows(symbol: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Integer rows of a generator's parameter action, 0-based.

    Row k lists the nonzero (j, c) with new b_k = sum of c * b_j.  The rows
    are read off the period-map action (root variables evolved by the
    generator, then inverted with the same b4) on the eight unit vectors;
    that action is linear with integer coefficients.
    """
    columns = []
    for j in range(8):
        unit = ParamVector(tuple(int(i == j) for i in range(8)))
        a = root_variable_evolution((symbol,), root_variables(unit))
        columns.append(params_from_root_variables(a, unit.b[3]).b)
    return tuple(
        tuple((j, int(col[k])) for j, col in enumerate(columns) if col[k]) for k in range(8)
    )


def _row_value(row: tuple[tuple[int, int], ...], b: tuple[Fraction, ...]) -> Fraction:
    # Coefficients are small integers, mostly +-1: add or subtract those.
    (j, c), *rest = row
    value = b[j] if c == 1 else c * b[j]
    for j, c in rest:
        if c == 1:
            value = value + b[j]
        elif c == -1:
            value = value - b[j]
        else:
            value = value + c * b[j]
    return value


Formula = Callable[[Fraction, Fraction, tuple[Fraction, ...]], Fraction]


def _compile(expr: Expr) -> Formula:
    """An expression tree as nested closures over plain (f, g, b1..b8).

    Division by zero raises ZeroDivisionError; wherever it does not, every
    value is finite and the result equals the projective evaluation.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda f, g, b: value
    if isinstance(expr, Var):
        if expr.name == "f":
            return lambda f, g, b: f
        if expr.name == "g":
            return lambda f, g, b: g
        index = int(expr.name[1:]) - 1
        return lambda f, g, b: b[index]
    op, left, right = _OPERATORS[expr.op], _compile(expr.left), _compile(expr.right)
    return lambda f, g, b: op(left(f, g, b), right(f, g, b))


@lru_cache(maxsize=None)
def _compiled_coords(symbol: str) -> tuple[Formula, Formula]:
    coord_f, coord_g = _COORD_TABLES[symbol]
    return _compile(coord_f), _compile(coord_g)


@lru_cache(maxsize=None)
def generator_step(symbol: str) -> BirationalStep:
    """The elementary birational map attached to a generator symbol."""
    if symbol not in SYMBOLS:
        raise ValueError(f"unknown generator symbol {symbol!r}")
    coord_f, coord_g = _COORD_TABLES[symbol]
    return BirationalStep(symbol, coord_f, coord_g, generator_picmap(symbol))


def eval_step(
    step: BirationalStep, b: ParamVector, p: SurfacePoint
) -> tuple[ParamVector, SurfacePoint]:
    """Apply one elementary map to (parameters; point).

    Coordinates are evaluated with the incoming parameters, then the
    parameters are updated.  A finite point goes through the compiled
    formulas; a point at infinity, or a vanishing denominator there, falls
    back to the projective tree walk.  Raises Indeterminate when the point
    is a base point of the map.
    """
    if p.is_finite:
        formula_f, formula_g = _compiled_coords(step.name)
        f, g = p.f.num, p.g.num
        try:
            new_f, new_g = formula_f(f, g, b.b), formula_g(f, g, b.b)
        except ZeroDivisionError:
            pass  # the projective walk below decides infinity or a base point
        else:
            new_p = SurfacePoint(ProjectiveCoord.finite(new_f), ProjectiveCoord.finite(new_g))
            return step.apply_params(b), new_p
    env: dict[str, ProjectiveCoord] = {"f": p.f, "g": p.g}
    for i in range(8):
        env[f"b{i + 1}"] = ProjectiveCoord.finite(b.b[i])
    try:
        new_f = step.coord_f.evaluate(env)
        new_g = step.coord_g.evaluate(env)
    except Indeterminate as exc:
        raise Indeterminate(f"base point of {step.name}", symbol=step.name) from exc
    return step.apply_params(b), SurfacePoint(new_f, new_g)


def eval_word(
    word: Iterable[str], b: ParamVector, p: SurfacePoint
) -> tuple[ParamVector, SurfacePoint]:
    """Apply a word of generators (rightmost symbol first)."""
    symbols = tuple(word)
    for pos, symbol in enumerate(reversed(symbols)):
        try:
            b, p = eval_step(generator_step(symbol), b, p)
        except Indeterminate as exc:
            raise Indeterminate(
                f"indeterminate at step {pos} ({symbol}) of word",
                step_index=pos,
                symbol=symbol,
            ) from exc
    return b, p


def word_map(word: Iterable[str]) -> Callable[[ParamVector, SurfacePoint], tuple[ParamVector, SurfacePoint]]:
    """A word as an evaluable map, suitable for maps_equal."""
    symbols = tuple(word)
    return lambda b, p: eval_word(symbols, b, p)


#: Bound on numerators and denominators of random samples; small enough to
#: keep rational growth through long chains cheap, large enough that chance
#: agreement of distinct maps is negligible.
SAMPLE_BOUND = 10_000


def sample_fraction(rng: random.Random, bound: int = SAMPLE_BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def sample_state(rng: random.Random, bound: int = SAMPLE_BOUND) -> tuple[ParamVector, SurfacePoint]:
    b = ParamVector(tuple(sample_fraction(rng, bound) for _ in range(8)))
    p = SurfacePoint.affine(sample_fraction(rng, bound), sample_fraction(rng, bound))
    return b, p


def check_rejection_rate(accepted: int, rejected: int, what: str) -> None:
    """Stop a sampling loop once more than 90 percent of its draws were rejected.

    Called before each draw; the first 10 rejections are always allowed.
    """
    if rejected > 9 * (accepted + 1) and rejected >= 10:
        raise TooManyDegenerateSamples(f"rejected {rejected} of {accepted + rejected} {what}")


def _per_sample_rng(seed: int, index: int) -> random.Random:
    # Split the stream per sample index so results do not depend on scheduling.
    return random.Random(f"{seed}:{index}")


@dataclass(frozen=True)
class MapComparison:
    """Outcome of a randomized pointwise equality check."""

    equal: bool
    samples: int
    rejected: int
    counterexample: tuple[ParamVector, SurfacePoint] | None = None

    def to_json(self) -> dict:
        out: dict = {"equal": self.equal, "samples": self.samples, "rejected": self.rejected}
        if self.counterexample is not None:
            b, p = self.counterexample
            out["counterexample"] = {"b": b.to_json(), "point": p.to_json()}
        return out


MapLike = Callable[[ParamVector, SurfacePoint], tuple[ParamVector, SurfacePoint]]


def maps_equal(
    map_a: MapLike,
    map_b: MapLike,
    trials: int = 25,
    seed: int = 0,
    bound: int = SAMPLE_BOUND,
) -> MapComparison:
    """Exact randomized equality test of two maps on (parameters; point).

    Draws seeded generic rational samples, resampling any draw on which
    either map runs into an indeterminate point.  Outputs are compared
    exactly, coordinates projectively.  Raises TooManyDegenerateSamples when
    more than 90 percent of draws get rejected, and ValueError when trials
    is below 1, since no sample would then be compared.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    accepted = 0
    rejected = 0
    index = 0
    while accepted < trials:
        index += 1
        check_rejection_rate(accepted, rejected, "sampled inputs")
        rng = _per_sample_rng(seed, index)
        b, p = sample_state(rng, bound)
        try:
            out_a = map_a(b, p)
            out_b = map_b(b, p)
        except Indeterminate:
            rejected += 1
            continue
        accepted += 1
        if out_a[0] != out_b[0] or out_a[1] != out_b[1]:
            return MapComparison(False, accepted, rejected, counterexample=(b, p))
    return MapComparison(True, accepted, rejected)
