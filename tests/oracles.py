"""Independent oracle transcriptions of the two dynamics and the generators.

These are second, structurally different transcriptions of the defining
formulas, kept deliberately separate from the library path: the library and
the oracle must agree exactly at random samples before anything else is
trusted.  Plain field arithmetic (Fractions, or sympy symbols for the
proofs); degenerate samples raise ZeroDivisionError and are skipped by
callers.  The one exception is phi_projective_chain, phi's relations
evaluated node by node on ProjectiveValue, the field operations of P1: the
reference for phi_step at and through infinity.  ProjectiveValue holds a
FractionCoord, the library's former coordinate of P1 (two Fractions
normalized so the second is 0 or 1), which is also the reference for the
integer-pair ProjectiveCoord.

The library derives the parameter action of each generator and the
permutations of the symmetry and surface roots under each diagram
automorphism from the lattice matrices, and keeps its coordinate maps as
bihomogeneous forms; the hand-written tables below are the second source
those are checked against.  The defining vector of a translation is
cross-checked against a general exact linear solve (solve_linear_system).

Former library routines stay here as references for their faster
replacements: form_oracle, a Form evaluated by walking its term tables, and
eval_integers_oracle, words evaluated on it and on apply_rows, the generic
loop over a generator's param_rows (both replaced by straight-line code
compiled from the same tables),
cancel_pieces_oracle, the two-division seeded cancellation of
phi's confined factors, decimal_str_oracle, Decimal division of the
numerator by the denominator, to_alpha_coords_oracle, membership in Q
decided by rebuilding the class from its root coordinates, and
birational_checks_oracle and period_checks_oracle, verify's sampled
relation and gauge checks and its period checks on their bases, compared on
Fractions, decompose_oracle, the former reduction loop that picked each
pivot by root_sign on the seven RootVector images, traced its steps, and
wrote its word from those pivots (decompose now writes every word from its
integer-code pass and replays the pivots for a trace),
decompose_scanning_oracle, the reduction that applies the matrix to each
simple root and rescans all seven images for the pivot at every step, and
translation_delta_vector_oracle and translation_norm_oracle, the delta
vector from those images and the norm as a Fraction pairing of the
eliminated defining vector, fold_oracle, the letter loop that moves root
values (the compiled steps' reference, which evolution_oracle runs on
Fractions), param_rows_oracle, the parameter rows read off ParamVectors
through the Fraction period map, find_conjugator_oracle, the conjugator
search on Fraction-valued root variables, and psi_closed_form_oracle, psi's
closed form written for any field through its division, with
psi_step_oracle and psi_defined_oracle on it (over Q, and modulo the screen
prime), and equivalence_checks_oracle, the four sampled checks of verify's
equivalence suite on Fractions with the Fraction dictionaries and change of
variables.

mutant_of recompiles a library function with one edit, for the tests that
check a check fails on a wrong formula.
"""

from __future__ import annotations

import __future__
import inspect
import math
import random
import textwrap
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import add, neg
from typing import Callable, Sequence

from e6painleve.birational import (
    Coefficient,
    Form,
    Indeterminate,
    MapComparison,
    ParamVector,
    ProjectiveCoord,
    SurfacePoint,
    _lowest_terms,
    eval_word,
    generator_step,
    maps_equal,
    param_rows,
    sample_check,
    sample_fraction,
    word_map,
)
from e6painleve.decompose import (
    MAX_REDUCTION_STEPS,
    NoAutomorphismMatch,
    NotInGroup,
    ReductionStep,
    match_automorphism,
    simple_root_images,
)
from e6painleve.models import (
    CONJUGATOR_WORD,
    PHI_WORD,
    PSI_WORD,
    SchlesingerParams,
    _SCREEN_PRIME,
    phi_step,
    sample_schlesinger,
)
from e6painleve.periodmap import RootVariables, params_from_root_variables, root_variable_evolution, root_variables
from e6painleve.piclattice import (
    CARTAN,
    CARTAN_TERMS,
    DELTA_WEIGHTS,
    DivisorClass,
    NotInSymmetryLattice,
    RationalRootVector,
    RootVector,
    Sign,
    from_alpha_coords,
    root_sign,
    symmetry_root,
)
from e6painleve.weylgroup import (
    REFLECTION_SYMBOLS,
    SYMBOLS,
    NormMismatch,
    NotTranslation,
    PicMap,
    _fold_steps,
    parse_word,
    word_to_picmap,
)


def qrt_oracle(
    b: tuple[Fraction, ...], f: Fraction, g: Fraction
) -> tuple[tuple[Fraction, ...], Fraction, Fraction]:
    """One QRT-deautonomization step, rearranged from the coupled relations.

    Both relations are used in the unbarred-parameter form, with the shifted
    denominators written explicitly as b7 - d and b8 - d.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    d = b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8
    rhs1 = ((g + b1) * (g + b2) * (g + b3) * (g + b4)) / ((g - b5) * (g - b6))
    f_bar = rhs1 / (f + g) - g
    rhs2 = ((f_bar - b1) * (f_bar - b2) * (f_bar - b3) * (f_bar - b4)) / (
        (f_bar + b7 - d) * (f_bar + b8 - d)
    )
    g_bar = rhs2 / (f_bar + g) - f_bar
    new_b = (b1, b2, b3, b4, b5 + d, b6 + d, b7 - d, b8 - d)
    return new_b, f_bar, g_bar


def qrt_relations_hold(
    b: tuple[Fraction, ...], f: Fraction, g: Fraction, f_bar: Fraction, g_bar: Fraction
) -> bool:
    """Check the two defining product relations exactly (no rearrangement)."""
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    d = b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8
    first = (f + g) * (f_bar + g) * (g - b5) * (g - b6) == (g + b1) * (g + b2) * (
        g + b3
    ) * (g + b4)
    second = (f_bar + g) * (f_bar + g_bar) * (f_bar + b7 - d) * (f_bar + b8 - d) == (
        (f_bar - b1) * (f_bar - b2) * (f_bar - b3) * (f_bar - b4)
    )
    return first and second


@dataclass(frozen=True)
class FractionCoord:
    """Point of P1 as a pair (num : den) of Fractions, normalized so den is 0 or 1."""

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

    @property
    def is_finite(self) -> bool:
        return self.den != 0

    def as_fraction(self) -> Fraction:
        if not self.is_finite:
            raise ValueError("coordinate is at infinity")
        return self.num

    def __str__(self) -> str:
        return str(self.num) if self.is_finite else "inf"

    def to_json(self) -> dict[str, str]:
        return {"n": str(self.num.numerator), "d": str(self.num.denominator if self.is_finite else 0)}

    def library(self) -> ProjectiveCoord:
        """The same point as the library's ProjectiveCoord."""
        return ProjectiveCoord(self.num.numerator, self.num.denominator if self.is_finite else 0)


class ProjectiveValue:
    """A point of P1 with the field operations extended to infinity.

    c + inf = inf, c / 0 = inf for c != 0, c / inf = 0; an operation that
    meets 0/0 (inf - inf, 0 * inf, 0 / 0, inf / inf) raises Indeterminate.
    """

    def __init__(self, num, den=1):
        self.coord = FractionCoord(Fraction(num), Fraction(den))

    @classmethod
    def of(cls, c: ProjectiveCoord) -> "ProjectiveValue":
        return cls(c.numerator, c.denominator)

    def __add__(self, other: "ProjectiveValue") -> "ProjectiveValue":
        a, b = self.coord, other.coord
        return ProjectiveValue(a.num * b.den + a.den * b.num, a.den * b.den)

    def __neg__(self) -> "ProjectiveValue":
        return ProjectiveValue(-self.coord.num, self.coord.den)

    def __sub__(self, other: "ProjectiveValue") -> "ProjectiveValue":
        return self + (-other)

    def __mul__(self, other: "ProjectiveValue") -> "ProjectiveValue":
        a, b = self.coord, other.coord
        return ProjectiveValue(a.num * b.num, a.den * b.den)

    def __truediv__(self, other: "ProjectiveValue") -> "ProjectiveValue":
        a, b = self.coord, other.coord
        return ProjectiveValue(a.num * b.den, a.den * b.num)


def phi_projective_chain(b: tuple[Fraction, ...], f: ProjectiveCoord, g: ProjectiveCoord):
    """One phi step evaluated node by node on ProjectiveValue arithmetic.

    The relations are rearranged as in qrt_oracle, but every intermediate is
    a projective value, so inputs and intermediates at infinity are
    followed exactly until an operation meets 0/0 or infinity/infinity,
    which raises Indeterminate (also where the map itself is defined).
    Returns the new (f, g) as the library's ProjectiveCoords.
    """
    c = ProjectiveValue
    f, g = c.of(f), c.of(g)
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    d = b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8
    rhs1 = (
        (g + c(b1)) * (g + c(b2)) * (g + c(b3)) * (g + c(b4))
        / ((g - c(b5)) * (g - c(b6)))
    )
    f_new = rhs1 / (f + g) - g
    n7, n8 = b7 - d, b8 - d
    rhs2 = (
        (f_new - c(b1)) * (f_new - c(b2)) * (f_new - c(b3)) * (f_new - c(b4))
        / ((f_new + c(n7)) * (f_new + c(n8)))
    )
    g_new = rhs2 / (f_new + g) - f_new
    return f_new.coord.library(), g_new.coord.library()


def schlesinger_oracle(
    theta: tuple[Fraction, ...], x: Fraction, y: Fraction
) -> tuple[tuple[Fraction, ...], Fraction, Fraction]:
    """One elementary Schlesinger step, transcribed independently.

    theta = (theta01, theta02, theta11, theta12, kappa1, kappa2, kappa3).
    The intermediate quantities are expanded in a different order from the
    library path so a transcription slip in either copy shows up.
    """
    t01, t02, t11, t12, k1, k2, k3 = theta

    e2 = k1 * k2 + k2 * k3 + k3 * k1
    e3 = k1 * k2 * k3
    quad = (y - t12) * (x - t02)
    lin = t01 * (y + t02)
    r1 = e2 - quad - lin - t11 * (t01 + t02 + t12)
    r2 = e3 + t11 * (quad + lin)

    common = (x + y) * (t11 - t12)
    alpha = (y * r1 * (x + t01 - t02) + x * (t01 * r1 + r2)) / (
        common * (x + t01 - t02)
    )
    beta = ((y + t02) * r1 + r2) / common

    diff = alpha - beta
    x_bar_num = diff * (
        alpha * x * (t11 - t12) + (1 + t02) * (x * (y - t12) + y * (t01 - t02))
    )
    x_bar_den = diff * (x * (y - t12) + (t01 - t02) * y) - alpha * (t11 + 1) * (
        t01 - t02
    )
    x_bar = x_bar_num / x_bar_den
    y_bar = diff * (y * (x + t01 - t02) - t12 * x) / (alpha * (t01 - t02))

    new_theta = (t01 - 1, t02, t11 + 1, t12, k1, k2, k3)
    return new_theta, x_bar, y_bar


#: Action of each diagram automorphism on the symmetry-root indices,
#: i -> sigma(i), read off the surface-root permutations:
#: m0 = (d1 d2), m1 = (d0 d2), m2 = (d0 d1), r = (d0 d1 d2).
ALPHA_PERMUTATIONS = {
    "m0": {0: 0, 1: 1, 2: 2, 3: 5, 4: 6, 5: 3, 6: 4},
    "m1": {0: 4, 1: 3, 2: 2, 3: 1, 4: 0, 5: 5, 6: 6},
    "m2": {0: 6, 1: 5, 2: 2, 3: 3, 4: 4, 5: 1, 6: 0},
    "r": {0: 6, 1: 5, 2: 2, 3: 1, 4: 0, 5: 3, 6: 4},
    "r2": {0: 4, 1: 3, 2: 2, 3: 5, 4: 6, 5: 1, 6: 0},
}


#: Action of each diagram automorphism on the surface roots, j -> k with
#: sigma(d_j) = d_k.
SURFACE_PERMUTATIONS = {
    "m0": (0, 2, 1),
    "m1": (2, 1, 0),
    "m2": (1, 0, 2),
    "r": (1, 2, 0),
    "r2": (2, 0, 1),
}


def _swap(i: int, j: int) -> tuple[dict[int, int], ...]:
    return tuple({j if k == i else i if k == j else k: 1} for k in range(1, 9))


#: Parameter action of each generator: row k gives the new b_k as
#: {old b-index: coefficient}, 1-based.  Every row set fixes b4 and the
#: total sum b1 + ... + b8; no generator has a constant shift.
PARAM_TABLES: dict[str, tuple[dict[int, int], ...]] = {
    "w0": (
        {1: 1, 3: -1, 4: 1},
        {2: 1, 3: -1, 4: 1},
        {3: -1, 4: 2},
        {4: 1},
        {5: 1, 3: 1, 4: -1},
        {6: 1, 3: 1, 4: -1},
        {7: 1, 3: 1, 4: -1},
        {8: 1, 3: 1, 4: -1},
    ),
    "w1": _swap(2, 3),
    "w2": _swap(1, 2),
    "w3": (
        {7: -1},
        {2: 1},
        {3: 1},
        {4: 1},
        {5: 1, 1: 1, 7: 1},
        {6: 1, 1: 1, 7: 1},
        {1: -1},
        {8: 1},
    ),
    "w4": _swap(7, 8),
    "w5": (
        {5: -1},
        {2: 1},
        {3: 1},
        {4: 1},
        {1: -1},
        {6: 1},
        {7: 1, 1: 1, 5: 1},
        {8: 1, 1: 1, 5: 1},
    ),
    "w6": _swap(5, 6),
    "m0": ({1: 1}, {2: 1}, {3: 1}, {4: 1}, {7: 1}, {8: 1}, {5: 1}, {6: 1}),
    "m1": (
        {4: 1, 2: -1, 8: -1},
        {4: 1, 1: -1, 8: -1},
        {4: 1, 7: 1, 8: -1},
        {4: 1},
        {1: 1, 2: 1, 5: 1, 8: 1, 4: -1},
        {1: 1, 2: 1, 6: 1, 8: 1, 4: -1},
        {3: 1, 8: 1, 4: -1},
        {8: 1},
    ),
    "m2": (
        {4: 1, 2: -1, 6: -1},
        {4: 1, 1: -1, 6: -1},
        {4: 1, 5: 1, 6: -1},
        {4: 1},
        {3: 1, 6: 1, 4: -1},
        {6: 1},
        {1: 1, 2: 1, 6: 1, 7: 1, 4: -1},
        {1: 1, 2: 1, 6: 1, 8: 1, 4: -1},
    ),
    "r": (
        {4: 1, 2: -1, 8: -1},
        {4: 1, 1: -1, 8: -1},
        {4: 1, 7: 1, 8: -1},
        {4: 1},
        {3: 1, 8: 1, 4: -1},
        {8: 1},
        {1: 1, 2: 1, 5: 1, 8: 1, 4: -1},
        {1: 1, 2: 1, 6: 1, 8: 1, 4: -1},
    ),
    "r2": (
        {4: 1, 2: -1, 6: -1},
        {4: 1, 1: -1, 6: -1},
        {4: 1, 5: 1, 6: -1},
        {4: 1},
        {1: 1, 2: 1, 6: 1, 7: 1, 4: -1},
        {1: 1, 2: 1, 6: 1, 8: 1, 4: -1},
        {3: 1, 6: 1, 4: -1},
        {6: 1},
    ),
}


def param_oracle(symbol: str, b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Apply the hand-written parameter table of one generator."""
    return tuple(
        sum((c * b[j - 1] for j, c in row.items()), Fraction(0)) for row in PARAM_TABLES[symbol]
    )


def coord_oracle(symbol: str, b: Sequence, f, g) -> tuple:
    """One generator's coordinate map on the affine chart, (f, g) -> (f~, g~).

    The formulas as first transcribed, with nested quotients (the library
    keeps them as bihomogeneous forms).  Generic field arithmetic: Fractions
    raise ZeroDivisionError where a denominator vanishes, sympy symbols give
    rational functions.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    identity = lambda: (f, g)
    formulas: dict[str, Callable[[], tuple]] = {
        "w0": lambda: (f - b3 + b4, g + b3 - b4),
        "w1": identity,
        "w2": identity,
        "w3": lambda: (f, (f + b7) * (g + b1) / (f - b1) + b7),
        "w4": identity,
        "w5": lambda: ((f - b1) * (g - b5) / (g + b1) - b5, g),
        "w6": identity,
        "m0": lambda: (-g, -f),
        "m1": lambda: (-f + b4 - b8, (f * (g + b1) + b2 * (f - b1)) / (f + g) + b8 - b4),
        "m2": lambda: ((g * (f - b1) - b2 * (g + b1)) / (f + g) + b4 - b6, -g - b4 + b6),
        "r": lambda: (-((f * (g + b1) + b2 * (f - b1)) / (f + g)) + b4 - b8, f - b4 + b8),
        "r2": lambda: (g + b4 - b6, -((g * (f - b1) - b2 * (g + b1)) / (f + g)) - b4 + b6),
    }
    return formulas[symbol]()


def form_oracle(form: Form, f: tuple, g: tuple, b: Sequence) -> tuple:
    """A Form's (num : den) by walking its term tables, as Form.__call__ did before it was compiled."""
    fs = (f[1], f[0]) if form.degree[0] else (1,)
    gs = (g[1], g[0]) if form.degree[1] else (1,)
    num = den = 0
    for i, j, coefficient in form.num:
        num += _coefficient_value(coefficient, b) * fs[i] * gs[j]
    for i, j, coefficient in form.den:
        den += _coefficient_value(coefficient, b) * fs[i] * gs[j]
    return num, den


def _coefficient_value(coefficient: Coefficient, b: Sequence) -> int:
    value = 0
    for c, ks in coefficient:
        for k in ks:
            c *= b[k]
        value += c
    return value


def apply_rows(rows: tuple[tuple[tuple[int, int], ...], ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Integer parameters after one generator's param_rows."""
    out = []
    for row in rows:
        value = 0
        for j, c in row:
            value += c * b[j]
        out.append(value)
    return tuple(out)


def eval_integers_oracle(word: tuple[str, ...], b: tuple[int, ...], f: tuple, g: tuple) -> tuple:
    """eval_integers as it was before compilation: form_oracle and apply_rows(param_rows(symbol)) per letter."""
    for pos, symbol in enumerate(reversed(word)):
        step = generator_step(symbol)
        keep_f, keep_g = step.coord_f.text == "f", step.coord_g.text == "g"
        if not (keep_f and keep_g):
            try:
                f, g = (
                    f if keep_f else _lowest_terms(*form_oracle(step.coord_f, f, g, b)),
                    g if keep_g else _lowest_terms(*form_oracle(step.coord_g, f, g, b)),
                )
            except Indeterminate as exc:
                raise Indeterminate(
                    f"indeterminate at step {pos} ({symbol}) of word", step_index=pos, symbol=symbol
                ) from exc
        b = apply_rows(param_rows(symbol), b)
    return b, f, g


def solve_linear_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Solve A x = rhs exactly by Gaussian elimination.

    Returns one solution with all free variables set to zero, or None when
    the system is inconsistent.  A may be rectangular and rank-deficient.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[r])] for r, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n_cols):
        sel = next((r for r in range(row, n_rows) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pivot = aug[row][col]
        aug[row] = [x / pivot for x in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, n_rows):
        if aug[r][n_cols] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for r, c in pivots:
        solution[c] = aug[r][n_cols]
    return tuple(solution)


def kac_vector_oracle(
    cartan: Sequence[Sequence[int]], ns: Sequence[int], delta: Sequence[int]
) -> tuple[Fraction, ...] | None:
    """Solve (alpha . a_i) = n_i by elimination; shift alpha by delta to a0 = 0."""
    solution = solve_linear_system(
        [[Fraction(c) for c in row] for row in cartan], [Fraction(n) for n in ns]
    )
    if solution is None:
        return None
    return tuple(x - solution[0] * w for x, w in zip(solution, delta))


def cancel_pieces_oracle(
    factors: Sequence[int], n: int, seeds: Sequence[int] | None
) -> tuple[list[int], int]:
    """([factors[i] / g_i], n / prod g_i), each g_i a gcd and a second division.

    Without seeds g_i = gcd(factors[i], n / (g_1 .. g_(i-1))); with seeds
    g_i = gcd(factors[i], seeds[i]), less the bits of their product that n
    does not hold, taken from the g_i in order.
    """
    if seeds is None:
        cofactors = []
        for m in factors:
            g = math.gcd(m, n)
            n //= g
            cofactors.append(m // g)
        return cofactors, n
    gs = [math.gcd(m, s) for m, s in zip(factors, seeds)]
    total = math.prod(gs)
    excess = total // math.gcd(n, total)
    if excess > 1:
        total //= excess
        for i, g in enumerate(gs):
            shared = math.gcd(g, excess)
            gs[i] = g // shared
            excess //= shared
    return [m // g for m, g in zip(factors, gs)], n // total


def decimal_str_oracle(x: Fraction, digits: int = 20) -> str:
    """Decimal(numerator) / Decimal(denominator) at precision digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def to_alpha_coords_oracle(c: DivisorClass) -> RootVector:
    """Triangular root coordinates, kept only if sum_i x_i a_i rebuilds c."""
    hf, hg, _, e2, e3, e4, _, e6, _, e8 = c.coeffs
    x0 = -e4
    x1 = x0 - e3
    v = RootVector((x0, x1, x1 - e2, hf, -e8, hg, -e6))
    if from_alpha_coords(v) != c:
        raise NotInSymmetryLattice(f"{c} is not in the span of the symmetry roots")
    return v


def birational_checks_oracle(
    relations, trials: int, seed: int, bound: int
) -> list[tuple[str, MapComparison, tuple[str, ...]]]:
    """birational_suite's sampled checks on Fractions: (name, comparison, fields).

    Each relation compares the two words' eval_word outputs; the gauge check
    applies each generator's parameter action and compares b4 and the sum.
    """
    checks = [
        (name, maps_equal(word_map(lhs), word_map(rhs), trials=trials, seed=seed, bound=bound), ("b", "point"))
        for name, lhs, rhs in relations
    ]
    rng = random.Random(f"gauge:{seed}")

    def gauge_fixed(b: ParamVector) -> bool:
        return all(
            new_b.b[3] == b.b[3] and new_b.chi_delta() == b.chi_delta()
            for new_b in (generator_step(s).apply_params(b) for s in SYMBOLS)
        )

    params = lambda _: ParamVector(tuple(sample_fraction(rng, bound) for _ in range(8)))
    gauge = sample_check(trials, params, gauge_fixed, "parameter samples")
    return checks + [("gauge_fixes_b4_and_chi_delta", gauge, ("b",))]


def period_checks_oracle(
    lattice_rows: Callable[[tuple[str, ...]], Sequence[Sequence[int]]],
) -> list[tuple[str, MapComparison, tuple[str, ...]]]:
    """period_suite's checks on Fractions, in its order and on its bases.

    lattice_rows(w) gives row i, the simple-root coordinates of w^-1(a_i).
    """

    def consistent(b: ParamVector) -> bool:
        a = root_variables(b).a
        for s in SYMBOLS:
            predicted = tuple(sum((c * x for c, x in zip(row, a)), Fraction(0)) for row in lattice_rows((s,)))
            if root_variables(generator_step(s).apply_params(b)).a != predicted:
                return False
        return True

    def chi_delta_fixed(b: ParamVector) -> bool:
        a = root_variables(b)
        return all(evolution_oracle((s,), a).chi_delta() == a.chi_delta() for s in SYMBOLS)

    def evolution_matches_lattice(word: tuple[str, ...]) -> bool:
        # New a_i on the unit vector e_j is entry (i, j) of the lattice's matrix.
        return all(
            evolution_oracle(word, RootVariables(tuple(Fraction(i == j) for i in range(7)))).a
            == tuple(Fraction(row[j]) for row in lattice_rows(word))
            for j in range(7)
        )

    def phi_evolution(a: RootVariables) -> bool:
        d = a.chi_delta()
        expected = (a.a[0], a.a[1], a.a[2], a.a[3] - d, a.a[4], a.a[5] + d, a.a[6])
        return evolution_oracle(PHI_WORD, a).a == expected

    params = [ParamVector(tuple(Fraction(i == j) for i in range(8))) for j in range(8)]
    roots = [RootVariables(tuple(Fraction(i == j) / (j + 2) for i in range(7))) for j in range(7)]
    checks = [
        ("generator_consistency", params, consistent, ("b",)),
        ("chi_delta_invariance", params, chi_delta_fixed, ("b",)),
        ("evolution_linearity", (PHI_WORD, PSI_WORD), evolution_matches_lattice, ("word",)),
        ("phi_word_root_evolution", roots, phi_evolution, ("a",)),
    ]
    return [
        (name, sample_check(len(basis), lambda i: basis[i - 1], holds, "basis vectors"), fields)
        for name, basis, holds, fields in checks
    ]


def _images_oracle(m: PicMap) -> list[tuple[int, ...] | None]:
    """m applied to each simple root, in root coordinates; None outside Q."""
    images = []
    for i in range(7):
        try:
            images.append(to_alpha_coords_oracle(m(symmetry_root(i))).coeffs)
        except NotInSymmetryLattice:
            images.append(None)
    return images


#: Raised by both reduction oracles when an image is still negative after 4096 pivots.
_CAP_MESSAGE = "reduction did not finish within 4096 steps; map is outside the group or longer than 4096 letters"


def decompose_scanning_oracle(m: PicMap, trace: bool = False):
    """decompose with a full scan for the first negative image at every step."""
    images = _images_oracle(m)
    if None in images:
        raise NotInGroup("map does not preserve the symmetry sublattice")
    cancellation: list[int] = []
    steps: list[ReductionStep] = []
    while True:
        pivot = next((i for i, v in enumerate(images) if max(v) <= 0 and min(v) < 0), None)
        if pivot is None:
            break
        if len(cancellation) == 4096:
            raise NotInGroup(_CAP_MESSAGE)
        p = images[pivot]
        for j, c in CARTAN_TERMS[pivot]:
            images[j] = tuple(map(add, images[j], p)) if c == 1 else tuple(map(neg, p))
        cancellation.append(pivot)
        if trace:
            steps.append(ReductionStep(pivot, tuple(map(RootVector, images))))
    try:
        residual = match_automorphism(tuple(map(RootVector, images)))
    except NoAutomorphismMatch as exc:
        raise NotInGroup(str(exc)) from exc
    word = tuple(([residual] if residual else []) + [f"w{i}" for i in reversed(cancellation)])
    if word_to_picmap(word) != m:
        raise NotInGroup("reduced word does not reproduce the map on the full lattice")
    return (word, tuple(steps)) if trace else word


def decompose_oracle(m: PicMap, trace: bool = False):
    """decompose as the reduction loop on the seven RootVector images, pivot by root_sign, with its trace."""
    vectors, fold_steps = simple_root_images(m), _fold_steps()
    cancellation: list[int] = []
    steps: list[ReductionStep] = []
    while True:
        pivot = next((i for i, v in enumerate(vectors) if root_sign(v) is Sign.NEGATIVE), None)
        if pivot is None:
            break
        if len(cancellation) == MAX_REDUCTION_STEPS:
            raise NotInGroup(_CAP_MESSAGE)
        vectors = fold_steps[REFLECTION_SYMBOLS[pivot]](vectors)
        cancellation.append(pivot)
        if trace:
            steps.append(ReductionStep(pivot, vectors))
    try:
        residual = match_automorphism(vectors)
    except NoAutomorphismMatch as exc:
        raise NotInGroup(str(exc)) from exc
    word = tuple(([residual] if residual else []) + [f"w{i}" for i in reversed(cancellation)])
    if word_to_picmap(word) != m:
        raise NotInGroup("reduced word does not reproduce the map on the full lattice")
    return (word, tuple(steps)) if trace else word


def translation_delta_vector_oracle(m: PicMap) -> tuple[int, ...]:
    """n with m(a_i) = a_i + n_i delta, testing each image before the next."""
    ns = []
    for i, coords in enumerate(_images_oracle(m)):
        if coords is None:
            raise NotTranslation(f"image of a_{i} is outside the symmetry lattice")
        diff = [c - (j == i) for j, c in enumerate(coords)]
        if any(d != diff[0] * w for d, w in zip(diff, DELTA_WEIGHTS)):
            raise NotTranslation(f"image of a_{i} is not a_{i} plus a multiple of delta")
        ns.append(diff[0])
    return tuple(ns)


def translation_norm_oracle(m: PicMap) -> Fraction:
    """-(alpha . alpha) summed over the full Cartan matrix, alpha by elimination."""
    alpha = kac_vector_oracle(CARTAN, translation_delta_vector_oracle(m), DELTA_WEIGHTS)
    if alpha is None:
        raise NotTranslation("inconsistent translation vector")
    return -sum(alpha[i] * CARTAN[i][j] * alpha[j] for i in range(7) for j in range(7))


def fold_oracle(word, values: Sequence) -> list:
    """fold_root_values as a letter loop over CARTAN_TERMS and the hand-written ALPHA_PERMUTATIONS."""
    values = list(values)
    for symbol in reversed(parse_word(word)):
        if symbol in REFLECTION_SYMBOLS:
            i = int(symbol[1])
            pivot = values[i]
            for j, c in CARTAN_TERMS[i]:
                values[j] += c * pivot
        else:
            moved = values[:]
            for i, j in ALPHA_PERMUTATIONS[symbol].items():
                moved[j] = values[i]
            values = moved
    return values


def evolution_oracle(word, a: RootVariables) -> RootVariables:
    """root_variable_evolution as fold_oracle on the Fractions themselves."""
    return RootVariables(tuple(fold_oracle(word, a.a)))


def param_rows_oracle(symbol: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """param_rows read off ParamVectors: the root variables of each unit vector
    evolved by the generator, then params_from_root_variables with its b4."""
    columns = []
    for j in range(8):
        unit = ParamVector(tuple(int(i == j) for i in range(8)))
        a = root_variable_evolution((symbol,), root_variables(unit))
        columns.append(params_from_root_variables(a, unit.b[3]).b)
    return tuple(tuple((j, int(col[k])) for j, col in enumerate(columns) if col[k]) for k in range(8))


def find_conjugator_oracle(src: RationalRootVector, dst: RationalRootVector, max_len: int):
    """The conjugator search on Fraction-valued root variables; norms summed over the full Cartan matrix."""

    def pairings(x: RationalRootVector) -> RootVariables:
        return RootVariables(tuple(sum(c * x.coeffs[j] for j, c in terms) for terms in CARTAN_TERMS))

    def norm(x: RationalRootVector) -> Fraction:
        return -sum(x.coeffs[i] * CARTAN[i][j] * x.coeffs[j] for i in range(7) for j in range(7))

    if norm(src) != norm(dst):
        raise NormMismatch("translation norms differ; vectors cannot be conjugate")
    target = pairings(dst)
    start = pairings(src)
    if start == target:
        return ()
    seen = {start}
    frontier = [(start, ())]
    for _ in range(max_len):
        next_frontier = []
        for symbol in REFLECTION_SYMBOLS:
            for n, word in frontier:
                moved = evolution_oracle((symbol,), n)
                if moved == target:
                    return (symbol,) + word
                if moved not in seen:
                    seen.add(moved)
                    next_frontier.append((moved, (symbol,) + word))
        frontier = next_frontier
    return None


def psi_closed_form_oracle(values: Sequence, divide: Callable) -> tuple:
    """psi's closed form (x, y) -> (x~, y~); values are theta01..kappa3, x, y.

    Written once for any field: divide(num, den) is the field's division and
    raises Indeterminate when den is zero, so every denominator of the map
    passes through it.
    """
    t01, t02, t11, t12, k1, k2, k3, x, y = values
    dt, d12 = t01 - t02, t11 - t12
    y12, y02 = y - t12, y + t02
    P = y12 * (x - t02) + t01 * y02
    H = x * y12 + dt * y
    xs = x + dt
    r1 = k1 * k2 + k2 * k3 + k3 * k1 - P - t11 * (t01 + t02 + t12)
    r2 = k1 * k2 * k3 + t11 * P

    den_shared = (x + y) * d12
    alpha = divide(y * r1 + divide(x * (t01 * r1 + r2), xs), den_shared)
    beta = divide(y02 * r1 + r2, den_shared)

    dab = alpha - beta
    x_new = divide(dab * (alpha * x * d12 + (1 + t02) * H), dab * H - alpha * (t11 + 1) * dt)
    y_new = divide(dab * (y * xs - t12 * x), alpha * dt)
    return x_new, y_new


def _fraction_divide(num: Fraction, den: Fraction) -> Fraction:
    if den == 0:
        raise Indeterminate("psi hit a base point", symbol="psi")
    return num / den


def _indices(t: SchlesingerParams) -> tuple[Fraction, ...]:
    return (t.theta01, t.theta02, t.theta11, t.theta12, t.kappa1, t.kappa2, t.kappa3)


def psi_step_oracle(t: SchlesingerParams, x, y) -> tuple[SchlesingerParams, Fraction, Fraction]:
    """psi_step on Fractions, each denominator through the field's division."""
    x_new, y_new = psi_closed_form_oracle((*_indices(t), Fraction(x), Fraction(y)), _fraction_divide)
    return t.shifted(), x_new, y_new


def psi_defined_oracle(values: Sequence[Fraction]) -> bool:
    """The psi_orbit screen: the closed form run modulo the screen prime, inverting every denominator."""

    def divide(num: int, den: int) -> int:
        den %= _SCREEN_PRIME
        if not den:
            raise Indeterminate("psi hit a base point", symbol="psi")
        return num * pow(den, -1, _SCREEN_PRIME) % _SCREEN_PRIME

    try:
        psi_closed_form_oracle([divide(v.numerator, v.denominator) for v in values], divide)
        return True
    except Indeterminate:
        return False


def chart_dictionary_oracle(t: SchlesingerParams) -> ParamVector:
    return ParamVector(
        (
            t.theta02 + t.kappa1, t.theta02 + t.kappa2, t.theta02 + t.kappa3, Fraction(0),
            t.theta11, t.theta12, t.theta01 - t.theta02, -t.theta02 - 1,
        )
    )


def matched_dictionary_oracle(t: SchlesingerParams) -> ParamVector:
    return ParamVector(
        (
            -t.kappa1 - t.theta01 - t.theta11, t.kappa2 + t.theta02, t.kappa3 + t.theta02, Fraction(0),
            t.theta01 - t.theta02, t.kappa1 + t.theta01 + t.theta12, t.theta11, t.kappa1 + t.theta11 - 1,
        )
    )


def change_of_variables_oracle(t: SchlesingerParams, x, y) -> tuple[Fraction, Fraction]:
    x, y = Fraction(x), Fraction(y)
    den_f = y + t.kappa1 + t.theta02
    den_g = x - t.kappa1 - t.theta02
    if den_f == 0 or den_g == 0:
        raise Indeterminate("change of variables undefined at the sample")
    f = (x * (y - t.theta11) - (t.kappa1 + t.theta02 + t.theta11) * y) / den_f
    g = (x * (y + t.kappa1 + t.theta01) + (t.theta01 - t.theta02) * y) / den_g
    return f, g


def equivalence_checks_oracle(
    trials: int, seed: int, bound: int, matched_dictionary: Callable | None = None
) -> list[tuple[str, MapComparison, tuple[str, ...]]]:
    """The four sampled checks of equivalence_suite on Fractions: (name, comparison, fields).

    phi is phi_step, psi psi_step_oracle, and the dictionaries and the
    change of variables the Fraction transcriptions above;
    matched_dictionary replaces the matched one in the transport check.
    """
    matched = matched_dictionary or matched_dictionary_oracle
    rng = random.Random(f"psi-word:{seed}")

    def psi_matches_word(sample: tuple) -> bool | None:
        t, x, y = sample
        t_new, x_new, y_new = psi_step_oracle(t, x, y)
        word_b, word_p = eval_word(PSI_WORD, chart_dictionary_oracle(t), SurfacePoint.affine(x, y))
        if not word_p.is_finite:
            return None
        return word_p == SurfacePoint.affine(x_new, y_new) and word_b == chart_dictionary_oracle(t_new)

    def transport_draw(index: int) -> tuple:
        rng = random.Random(f"equivalence:{seed}:{index}")
        return sample_schlesinger(rng), sample_fraction(rng, 100), sample_fraction(rng, 100)

    def transported(sample: tuple) -> bool | None:
        t, x, y = sample
        t_new, x_new, y_new = psi_step_oracle(t, x, y)
        f_new, g_new = change_of_variables_oracle(t_new, x_new, y_new)
        f, g = change_of_variables_oracle(t, x, y)
        b_new, p_new = phi_step(matched(t), SurfacePoint.affine(f, g))
        if not p_new.is_finite:
            return None
        return p_new == SurfacePoint.affine(f_new, g_new) and b_new == matched(t_new)

    conjugated = CONJUGATOR_WORD + PSI_WORD + tuple(reversed(CONJUGATOR_WORD))
    phi_vs_word = maps_equal(phi_step, word_map(PHI_WORD), trials=trials, seed=seed, bound=bound)
    psi_sample = lambda _: (sample_schlesinger(rng), sample_fraction(rng, 100), sample_fraction(rng, 100))
    psi_vs_word = sample_check(trials, psi_sample, psi_matches_word, "psi/word samples")
    conjugation = maps_equal(phi_step, word_map(conjugated), trials=trials, seed=seed, bound=bound)
    transport = sample_check(trials, transport_draw, transported, "Schlesinger samples")
    return [
        ("phi_formula_equals_word", phi_vs_word, ("b", "point")),
        ("psi_formula_equals_word", psi_vs_word, ("theta", "x", "y")),
        ("conjugation", conjugation, ("b", "point")),
        ("transported_dynamics", transport, ("theta", "x", "y")),
    ]


def mutant_of(function: Callable, old: str, new: str) -> Callable:
    """function recompiled, in a copy of its module's globals, with old replaced by new once."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(function.__globals__)
    code = compile(source.replace(old, new), "<mutant>", "exec", __future__.annotations.compiler_flag)
    exec(code, namespace)
    return namespace[function.__name__]
