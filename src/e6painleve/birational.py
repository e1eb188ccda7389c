"""Exact birational realization of the group generators on parameters and points.

Each generator acts on the family data (b1..b8; f, g): a linear map on the
eight blowup-position parameters and a birational map of P1 x P1 on the
point.  Every generator fixes b4 and the parameter sum (the gauge
normalization that makes the maps compose as a group).  The parameter action
is not tabulated: it is induced through the period map from the generator's
lattice action on the symmetry roots, read off once per generator on the
eight unit vectors as integer rows (new b_k = sum of c b_j), and then applied
as those rows.

The coordinate maps have one table, _FORMULAS: each coordinate is an affine
formula in f, g, b1..b8 in Python syntax (gens prints it), expanded once into
a Form, a numerator and a denominator bihomogeneous of the map's bidegree (at
most (1, 1)) in ((f0 : f1), (g0 : g1)) with integer polynomial coefficients
in b1..b8.  Every formula is weighted homogeneous of degree 1 when f, g and
the b_k all have weight 1, so a word runs on integers (eval_integers): b is
scaled once to integers over the lcm L of its denominators (the rows are
integers, so L never changes along the word), the point is a pair of
integer pairs for L f and L g, and each step reduces each coordinate it
changes with one gcd.  A zero denominator is infinity, so the lines at
infinity are ordinary inputs, and 0/0 is a base point of the map and raises
Indeterminate.  eval_word scales in once and divides each pair by L at
exit, reduced with one gcd against L.
Words run as straight-line code: on first use each Form compiles its term
tables into one function (f, g, b) -> (num, den) and each step its
param_rows into one b -> b~ (BirationalStep.rows), from the library's own
integer coefficients and indices, so no formula or input text reaches
compile; the objects holding the tables hold the code, so
generator_step.cache_clear() drops it, and with it the one table from which
eval_integers reads each letter's code (BirationalStep.kernel).

Equality of composed maps is decided by seeded random evaluation: two chains
agreeing at generic rational samples are equal with overwhelming probability
(randomized polynomial identity testing), and every agreement check here is
exact, never approximate.  Every randomized check, here and in verify,
runs through the one sampling loop sample_check: it draws, rejects
degenerate draws, stops at the first failing sample, and raises
TooManyDegenerateSamples once more than 90 percent of its draws were
rejected.  maps_equal is that loop on pairs of maps, and integer_maps_equal,
on draws its caller passes (maps_equal's, cached and shared), on pairs of
maps on integers (words, or phi) at one scale.  Samples are drawn as integer
pairs (sample_integers, which the Fraction samplers wrap) and scaled once;
the Fraction sample is built only to report a counterexample.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache, cached_property, lru_cache

from .periodmap import ParamVector, param_values, root_values, scale_to_integers
from .piclattice import _compile, _Value
from .weylgroup import fold_root_values, generator_picmap, parse_word, SYMBOLS


class Indeterminate(ArithmeticError):
    """Evaluation produced 0/0 (the input hit a base point of the map)."""

    def __init__(self, message: str, step_index: int | None = None, symbol: str | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.symbol = symbol


class TooManyDegenerateSamples(RuntimeError):
    """Random sampling rejected more than 90 percent of its draws."""


class ProjectiveCoord(_Value):
    """Point (numerator : denominator) of P1, an integer pair reduced by _lowest_terms."""

    _fields = ("numerator", "denominator")

    def __post_init__(self) -> None:
        num, den = _lowest_terms(self.numerator, self.denominator)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def finite(cls, value) -> "ProjectiveCoord":
        value = value if isinstance(value, (int, Fraction)) else Fraction(value)  # both in lowest terms
        return _coord(value.numerator, value.denominator)

    @classmethod
    def infinity(cls) -> "ProjectiveCoord":
        return _coord(1, 0)

    @property
    def is_finite(self) -> bool:
        return self.denominator != 0

    def pair(self, scale: int = 1) -> tuple[int, int]:
        """Integer pair (num : den) of scale times the coordinate; infinity is (1 : 0)."""
        return _scaled((self.numerator, self.denominator), scale)

    def as_fraction(self) -> Fraction:
        if not self.is_finite:
            raise ValueError("coordinate is at infinity")
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        num, den = self.numerator, self.denominator
        return "inf" if not den else str(num) if den == 1 else f"{num}/{den}"

    def to_json(self) -> dict[str, str]:
        return {"n": str(self.numerator), "d": str(self.denominator)}


def _coord(num: int, den: int) -> ProjectiveCoord:
    """The coordinate of a pair already in lowest terms, as _lowest_terms returns it: no second gcd."""
    coord = object.__new__(ProjectiveCoord)
    object.__setattr__(coord, "numerator", num)
    object.__setattr__(coord, "denominator", den)
    return coord


def _scaled(pair: tuple[int, int], scale: int) -> tuple[int, int]:
    """The pair (scale num : den) of scale times (num : den) in lowest terms; infinity stays (1 : 0)."""
    num, den = pair
    return (scale * num, den) if den else (1, 0)


class SurfacePoint(_Value):
    """Point (f, g) of P1 x P1, each coordinate a ProjectiveCoord."""

    _fields = ("f", "g")

    @classmethod
    def affine(cls, f, g) -> "SurfacePoint":
        return cls(ProjectiveCoord.finite(f), ProjectiveCoord.finite(g))

    @property
    def is_finite(self) -> bool:
        return self.f.is_finite and self.g.is_finite

    def to_json(self) -> dict[str, dict[str, str]]:
        return {"f": self.f.to_json(), "g": self.g.to_json()}


# Affine coordinate formulas (f~, g~) of the elementary maps, Python syntax
# over f, g, b1..b8: +, -, * and at most one top-level division.
_IDENTITY = ("f", "g")
_FORMULAS: dict[str, tuple[str, str]] = {
    "w0": ("f - b3 + b4", "g + b3 - b4"),
    "w1": _IDENTITY,
    "w2": _IDENTITY,
    "w3": ("f", "(f*g + (b1 + b7)*f + b7*g)/(f - b1)"),
    "w4": _IDENTITY,
    "w5": ("(f*g - b5*f - (b1 + b5)*g)/(g + b1)", "g"),
    "w6": _IDENTITY,
    "m0": ("-g", "-f"),
    "m1": ("-f + b4 - b8", "(f*g + (b1 + b2 - b4 + b8)*f + (b8 - b4)*g - b1*b2)/(f + g)"),
    "m2": ("(f*g + (b4 - b6)*f + (b4 - b1 - b2 - b6)*g - b1*b2)/(f + g)", "-g - b4 + b6"),
    "r": ("(-f*g + (b4 - b1 - b2 - b8)*f + (b4 - b8)*g + b1*b2)/(f + g)", "f - b4 + b8"),
    "r2": ("g + b4 - b6", "(-f*g + (b6 - b4)*f + (b1 + b2 - b4 + b6)*g + b1*b2)/(f + g)"),
}

#: Terms of an integer polynomial in b: (c, ks) stands for c * prod of b[k].
Coefficient = tuple[tuple[int, tuple[int, ...]], ...]
_NAMES = frozenset(("f", "g", *(f"b{k}" for k in range(1, 9))))  # the variables of a formula


def _expand(node) -> dict[tuple[str, ...], int]:
    """A +, -, * expression (an ast node) over f, g, b1..b8 and int literals as {sorted names: coefficient}."""
    import ast

    if isinstance(node, ast.Name) and node.id in _NAMES:
        return {(node.id,): 1}
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {(): node.value}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return {m: -c for m, c in _expand(node.operand).items()}
    if not (isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub, ast.Mult)):
        raise ValueError(f"{ast.unparse(node)!r} is not a +, -, * expression over f, g, b1..b8 and integers")
    left, right = _expand(node.left), _expand(node.right)
    if isinstance(node.op, ast.Mult):
        terms = [(tuple(sorted(m + n)), c * d) for m, c in left.items() for n, d in right.items()]
    else:
        sign = {ast.Add: 1, ast.Sub: -1}[type(node.op)]
        terms = [*left.items(), *((m, sign * c) for m, c in right.items())]
    out: dict[tuple[str, ...], int] = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _sum_source(terms: Iterable[tuple[int, list[str]]]) -> str:
    """Python source of the sum over (c, factors) of the integer c times the named factors."""
    parts = [{1: "", -1: "-"}.get(int(c), f"{int(c)}*") + "*".join(x) if x else str(int(c)) for c, x in terms]
    return " + ".join(parts).replace(" + -", " - ") or "0"


class Form(_Value):
    """One coordinate map num / den of P1 x P1, both forms of bidegree degree = (df, dg).

    num and den are tuples of terms.  A term (i, j, c) is the monomial
    f0^i f1^(df - i) g0^j g1^(dg - j) with coefficient c, an integer
    polynomial in b1..b8 (a Coefficient).  str() is the affine formula text
    the form was expanded from.
    """

    _fields = ("text", "degree", "num", "den")

    @classmethod
    def parse(cls, text: str) -> "Form":
        import ast

        node = ast.parse(text, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            polys = (_expand(node.left), _expand(node.right))
        else:
            polys = (_expand(node), {(): 1})
        grouped: tuple[dict, dict] = ({}, {})
        for poly, terms in zip(polys, grouped):
            for m, c in poly.items():
                ks = tuple(int(name[1:]) - 1 for name in m if name[0] == "b")
                terms.setdefault((m.count("f"), m.count("g")), []).append((c, ks))
        degree = tuple(max(key[v] for terms in grouped for key in terms) for v in (0, 1))
        num, den = (tuple((i, j, tuple(c)) for (i, j), c in terms.items()) for terms in grouped)
        return cls(text, degree, num, den)

    def __str__(self) -> str:
        return self.text

    def __call__(self, f: tuple[int, int], g: tuple[int, int], b: tuple[int, ...]) -> tuple[int, int]:
        """(num : den) at integer pairs f = (f0, f1), g = (g0, g1) and integer b (or any ring's)."""
        return self.compiled(f, g, b)

    @cached_property
    def compiled(self) -> Callable:
        """num and den as one straight-line function (f, g, b) -> (num, den) of the term tables."""
        df, dg = self.degree

        def product(i: int, j: int, coefficient: Coefficient) -> tuple[int, list[str]]:
            b_terms = [(c, [f"b[{int(k)}]" for k in ks]) for c, ks in coefficient]
            c, x = b_terms[0] if len(b_terms) == 1 else (1, [f"({_sum_source(b_terms)})"])
            return c, x + ["f0"] * i + ["f1"] * (df - i) + ["g0"] * j + ["g1"] * (dg - j)

        num, den = (_sum_source(product(*term) for term in terms) for terms in (self.num, self.den))
        return _compile("f, g, b", "(f0, f1), (g0, g1) = f, g", f"return {num}, {den}")


class BirationalStep(_Value):
    """One elementary map: the generator's name, its coordinate Forms and its lattice action (a PicMap)."""

    _fields = ("name", "coord_f", "coord_g", "picmap")

    def apply_params(self, b: ParamVector) -> ParamVector:
        """Parameter action induced through the period map (b4 is fixed): the compiled rows on L b."""
        scale, ints = scale_to_integers(b.b)
        return ParamVector(tuple(Fraction(x, scale) for x in self.rows(ints)))

    @cached_property
    def rows(self) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """param_rows as one straight-line function of integer parameters b -> b~."""
        rows = "".join(f"{_sum_source((c, [f'b[{int(j)}]']) for j, c in row)}, " for row in param_rows(self.name))
        return _compile("b", f"return ({rows})")

    @cached_property
    def kernel(self) -> tuple[Callable | None, Callable | None, Callable]:
        """The compiled f and g forms (None where the step keeps the coordinate) and rows."""
        return (
            None if self.coord_f.text == "f" else self.coord_f.compiled,
            None if self.coord_g.text == "g" else self.coord_g.compiled,
            self.rows,
        )


@lru_cache(maxsize=None)
def param_rows(symbol: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Integer rows of a generator's parameter action, 0-based.

    Row k lists the nonzero (j, c) with new b_k = sum of c * b_j.  The rows
    are read off the period-map action on the eight unit vectors, on
    integers: their root values folded by the generator, then param_values
    with the same b4; that action is linear with integer coefficients.
    """
    units = [tuple(int(i == j) for i in range(8)) for j in range(8)]
    columns = [param_values(fold_root_values((symbol,), root_values(unit)), unit[3]) for unit in units]
    return tuple(tuple((j, col[k]) for j, col in enumerate(columns) if col[k]) for k in range(8))


#: The steps built so far, and the twelve steps' kernels by symbol, which eval_integers reads on its first word.
_STEPS: dict[str, BirationalStep] = {}
_KERNELS: dict[str, tuple] = {}


def generator_step(symbol: str) -> BirationalStep:
    """The elementary birational map attached to a generator symbol, built once.

    generator_step.cache_clear() drops every step, the code compiled on it and its kernel.
    """
    if symbol not in _STEPS:
        if symbol not in SYMBOLS:
            raise ValueError(f"unknown generator symbol {symbol!r}")
        coord_f, coord_g = _FORMULAS[symbol]
        _STEPS[symbol] = BirationalStep(symbol, Form.parse(coord_f), Form.parse(coord_g), generator_picmap(symbol))
    return _STEPS[symbol]


def _clear_steps() -> None:
    _STEPS.clear()
    _KERNELS.clear()


generator_step.cache_clear = _clear_steps


def eval_step(
    step: BirationalStep, b: ParamVector, p: SurfacePoint
) -> tuple[ParamVector, SurfacePoint]:
    """Apply one elementary map to (parameters; point): a word of one letter."""
    return eval_word((step.name,), b, p)


def eval_integers(
    word: tuple[str, ...], b: tuple[int, ...], f: tuple[int, int], g: tuple[int, int]
) -> tuple[tuple[int, ...], tuple[int, int], tuple[int, int]]:
    """A word (rightmost symbol first) on L b and the pairs (num : den) of L f and L g.

    Each step evaluates the coordinates with the incoming parameters, then
    updates the parameters.  A coordinate the step changes is put in lowest
    terms with one gcd; one it leaves unchanged (formula "f" or "g") passes
    through as the same object, so a coordinate the word never changes comes
    back as given, unreduced.  Raises Indeterminate, with the step index and
    symbol, when the point is a base point of a step.
    """
    if not _KERNELS:
        _KERNELS.update((s, generator_step(s).kernel) for s in SYMBOLS)
    for pos, symbol in enumerate(reversed(word)):
        try:
            coord_f, coord_g, rows = _KERNELS[symbol]
        except KeyError:
            parse_word((symbol,))  # names the unknown symbol
            raise
        if coord_f or coord_g:
            try:
                f, g = (
                    f if coord_f is None else _lowest_terms(*coord_f(f, g, b)),
                    g if coord_g is None else _lowest_terms(*coord_g(f, g, b)),
                )
            except Indeterminate as exc:
                raise Indeterminate(
                    f"indeterminate at step {pos} ({symbol}) of word",
                    step_index=pos,
                    symbol=symbol,
                ) from exc
        b = rows(b)
    return b, f, g


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """(num : den) in lowest terms with den > 0, or (1 : 0); 0/0 raises Indeterminate."""
    if not den:
        if not num:
            raise Indeterminate("0/0 is not a point of P1")
        return 1, 0
    common = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // common, den // common


def eval_word(
    word: Iterable[str], b: ParamVector, p: SurfacePoint
) -> tuple[ParamVector, SurfacePoint]:
    """Apply a word of generators (rightmost symbol first): eval_integers on L b, each coordinate unscaled once."""
    scale, ints = scale_to_integers(b.b)
    ints, f, g = eval_integers(tuple(word), ints, p.f.pair(scale), p.g.pair(scale))
    return ParamVector(tuple(Fraction(x, scale) for x in ints)), SurfacePoint(_unscaled(f, scale), _unscaled(g, scale))


def _unscaled(pair: tuple[int, int], scale: int) -> ProjectiveCoord:
    """The coordinate (num : den scale) of a pair from eval_integers, with one gcd against scale.

    The pair is in lowest terms, or is (scale n : d) for a coordinate (n : d)
    that no letter changed; either way gcd(num, den scale) is gcd(num, scale).
    """
    num, den = pair
    common = math.gcd(num, scale)
    return _coord(num // common, den * scale // common)


def word_map(word: Iterable[str]) -> Callable[[ParamVector, SurfacePoint], tuple[ParamVector, SurfacePoint]]:
    """A word as an evaluable map, suitable for maps_equal."""
    symbols = tuple(word)
    return lambda b, p: eval_word(symbols, b, p)


#: Bound on numerators and denominators of random samples; small enough to
#: keep rational growth through long chains cheap, large enough that chance
#: agreement of distinct maps is negligible.
SAMPLE_BOUND = 10_000


def sample_integers(rng: random.Random, count: int, bound: int = SAMPLE_BOUND) -> tuple[int, tuple[int, ...], list]:
    """count seeded rationals x as integers: (L, L x, pairs), L the lcm of their denominators.

    Each x is rng.randint(-bound, bound) over rng.randint(1, bound), kept as
    its pair (n, d) in lowest terms (0 is (0, 1), as in Fraction): (L, L x)
    is scale_to_integers of the Fractions x, which only a report builds.
    """
    randint, pairs = rng.randint, []
    for _ in range(count):
        num, den = randint(-bound, bound), randint(1, bound)
        common = math.gcd(num, den)
        pairs.append((num // common, den // common))
    scale = math.lcm(*[den for _, den in pairs])
    return scale, tuple([num * (scale // den) for num, den in pairs]), pairs


def sample_fraction(rng: random.Random, bound: int = SAMPLE_BOUND) -> Fraction:
    return Fraction(*sample_integers(rng, 1, bound)[2][0])


def sample_state(rng: random.Random, bound: int = SAMPLE_BOUND) -> tuple[ParamVector, SurfacePoint]:
    return _state(sample_integers(rng, 10, bound)[2])


def _fractions(pairs: list[tuple[int, int]]) -> list[Fraction]:
    return [Fraction(n, d) for n, d in pairs]


def _state(pairs: list[tuple[int, int]]) -> tuple[ParamVector, SurfacePoint]:
    """The sample (b, p) of ten drawn pairs: b1..b8, then f and g."""
    *b, f, g = _fractions(pairs)
    return ParamVector(tuple(b)), SurfacePoint.affine(f, g)


def _per_sample_rng(seed: int, index: int) -> random.Random:
    # Split the stream per sample index so results do not depend on scheduling.
    return random.Random(f"{seed}:{index}")


class MapComparison(_Value):
    """Outcome of a randomized check: equal, the samples accepted and rejected, and the first failing sample, if any."""

    _fields = ("equal", "samples", "rejected", "counterexample")
    _defaults = (None,)


def sample_check(
    trials: int, draw: Callable[[int], object], holds: Callable[[object], bool | None], what: str
) -> MapComparison:
    """The sampling loop behind every randomized check.

    Draws samples with draw(index), index counting every draw from 1, until
    trials of them are accepted.  A draw is rejected when holds raises
    Indeterminate or returns None (an output at infinity); the loop stops at
    the first sample for which holds is False and returns it as the
    counterexample.  Raises ValueError when trials is below 1, since no
    sample would then be checked, and TooManyDegenerateSamples once more
    than 90 percent of the draws were rejected (the first 10 rejections are
    always allowed).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    accepted = rejected = 0
    while accepted < trials:
        if rejected > 9 * (accepted + 1):
            raise TooManyDegenerateSamples(f"rejected {rejected} of {accepted + rejected} {what}")
        sample = draw(accepted + rejected + 1)
        try:
            verdict = holds(sample)
        except Indeterminate:
            verdict = None
        if verdict is None:
            rejected += 1
            continue
        accepted += 1
        if not verdict:
            return MapComparison(False, accepted, rejected, counterexample=sample)
    return MapComparison(True, accepted, rejected)


MapLike = Callable[[ParamVector, SurfacePoint], tuple[ParamVector, SurfacePoint]]


def _scaled_state_draw(seed: int, bound: int) -> Callable[[int], tuple]:
    """maps_equal's samples drawn as integers: each sample's pairs, with (L b; (L f : 1), (L g : 1)).

    L is the lcm of all ten denominators.  The draw keeps every sample it
    made, so comparisons that share it draw each sample once, for as long as
    the caller holds the draw; _state rebuilds the sample (b, p).
    """

    @cache
    def draw(index: int) -> tuple:
        _, ints, pairs = sample_integers(_per_sample_rng(seed, index), 10, bound)
        return pairs, (ints[:8], (ints[8], 1), (ints[9], 1))

    return draw


def maps_equal(
    map_a: MapLike,
    map_b: MapLike,
    trials: int = 25,
    seed: int = 0,
    bound: int = SAMPLE_BOUND,
) -> MapComparison:
    """Exact randomized equality test of two maps on (parameters; point).

    Draws seeded generic rational samples (b, p), resampling any draw on
    which either map runs into an indeterminate point.  Outputs are compared
    exactly, coordinates projectively.  Raises as sample_check does.
    """

    def holds(sample: tuple[ParamVector, SurfacePoint]) -> bool:
        return map_a(*sample) == map_b(*sample)

    draw = lambda index: sample_state(_per_sample_rng(seed, index), bound)
    return sample_check(trials, draw, holds, "sampled inputs")


def integer_maps_equal(
    map_a: Callable[..., tuple],
    map_b: Callable[..., tuple],
    trials: int,
    draw: Callable[[int], tuple],
) -> MapComparison:
    """maps_equal of two maps on integers, on draw's samples: the same rejections and result.

    Each map takes the draw's one scaling (L b; L f, L g), as eval_integers
    does, and returns (L b~; L f~, L g~), the coordinates compared as points
    of P1 by cross-multiplication: neither map returns (0 : 0), since both
    raise Indeterminate there.  The caller passes the draw, so several
    comparisons can share one cached stream (of _scaled_state_draw(seed,
    bound): maps_equal's draws, as integers); a counterexample is the drawn
    (b, p), built from its pairs.
    """

    def holds(drawn: tuple) -> bool:
        b1, (f1, f1_den), (g1, g1_den) = map_a(*drawn[1])
        b2, (f2, f2_den), (g2, g2_den) = map_b(*drawn[1])
        return b1 == b2 and f1 * f2_den == f2 * f1_den and g1 * g2_den == g2 * g1_den

    found = sample_check(trials, draw, holds, "sampled inputs")
    return found if found.equal else MapComparison(False, found.samples, found.rejected, _state(found.counterexample[0]))
