"""The two built-in discrete dynamics and their exact equivalence.

phi is the deautonomized QRT map on the canonical chart (f, g) with
parameters b1..b8.  Writing d for the parameter sum, one step solves

    (f + g)(f~ + g)   = (g + b1)(g + b2)(g + b3)(g + b4) / ((g - b5)(g - b6)),
    (f~ + g)(f~ + g~) = (f~ - b1~)...(f~ - b4~) / ((f~ + b7~)(f~ + b8~)),

in that order (each relation is explicit in its unknown), with parameters
moving by b5, b6 -> +d and b7, b8 -> -d.  Substituting (f, g) -> (-g, -f~)
and (b1..b6) -> (b1~..b4~, b7~, b8~) turns the first relation into the
second, so one solver serves both.  The parameters are the integers L b,
for a common denominator L of b, and the coordinates the pairs of L f and
L g: both relations are homogeneous of degree 1 in (f, g, b), and L stays
valid along an orbit, since d = sum of the L b_i is an integer.  With
u = (U : X) and v = (V : W), the solver writes

    u~ + v = X A_1 A_2 A_3 A_4 / (W q_1 q_2 S),

where A_i = V + r_i W, q_j = V - p_j W and S = U W + V X.  Most of that
fraction cancels, in confined factors (singularity confinement,
Grammaticos-Ramani-Papageorgiou 1991): X = x_1 x_2 with x_j dividing q_j,
and S = s_1 s_2 s_3 s_4 with s_i dividing A_i.  The solver cancels them
piece by piece, on numbers of a quarter of the size, before anything is
multiplied out, and the kernel reduces what is left with one gcd per
half-step.  The pieces recur as tau-function factors along an orbit: x_1
and x_2 are, up to a few bits, the cofactors q_2 / x_2 and q_1 / x_1 of
the half-step before last, and s_i is the cofactor A_i / s_i of the
previous half-step.  So phi_orbit and psi_orbit carry the cofactors from
step to step and seed each piece's gcd with them; phi_step is the kernel
without a carry.  Where X, W, S or some A_i or q_j is zero, the unknown is
the ratio of two bihomogeneous integer polynomials on P1 x P1, which makes
it exact on the lines at infinity and leaves 0/0 only at base points.

psi is an elementary two-point Schlesinger transformation, realized as a
closed-form birational map in isomonodromic coordinates (x, y) whose
parameters are characteristic indices (theta and kappa values constrained by
the Fuchs relation); one step shifts one index at 0 down and one index at 1
up by one.

Two parameter dictionaries translate the indices into canonical
b-parameters: one straight from psi's own blowup-point positions, and one
(the first composed with the conjugating reflection pair w5, w3) under which
psi becomes phi exactly; the same conjugation produces the explicit change
of variables (x, y) -> (f, g).  verify_equivalence checks both identities
pointwise at seeded generic rational samples, exactly, on integers.

psi_orbit uses that identity to run on phi's integer kernel: it changes
chart once, steps phi, and maps each state back through w5, w3, built from
the pieces phi's second half-step already holds.  There v = -f~ and u = -g,
so with L f~ = -V/W the second relation turns w3's y into

    y = (f~ - b2)(f~ - b3)(f~ - b4) / ((f~ + b~8)(f~ + g)) - f~,
  L y = L b~7 - x_1 K' / (c_2 s_1 S'),  K' = (X' a_2 a_3 a_4 - c_1 c_2 s_1 S') / W,

and w5, at w3's parameters, gives

    x = (f~ (y - b~1 - b~5 - b~7) - (b~1 + b~5) y) / (y - b~7),
  L x = L f~ - L (b~1 + b~5) X' a_2 a_3 a_4 / (W K'),

whose numerator shares with W what W holds of the first half-step's c_2.
Each pair is then reduced with one gcd of a few bits.  Where a piece does
not divide, it stays in the denominator; where the second half-step is
not generic, or y = b~7, the step runs psi_step and the next step
re-enters the chart.  Each step is screened exactly, by psi's closed form
modulo 2^61 - 1, with psi_step as the fallback wherever a residue is zero,
so the orbit is that of iterated psi_step.  psi_step stays the independent
closed form the checks compare with the words and with phi.  It is written
once, fraction-free, over any commutative ring: on integers for psi_step
and the checks, modulo the prime for the screen.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial

from .birational import (
    SAMPLE_BOUND,
    Indeterminate,
    MapComparison,
    ParamVector,
    SurfacePoint,
    _coord,
    _lowest_terms,
    _scaled,
    _scaled_state_draw,
    eval_integers,
    eval_word,
    integer_maps_equal,
    sample_check,
    sample_fraction,
)
from .periodmap import scale_to_integers
from .piclattice import _Value
from .weylgroup import PicMap, Word, parse_word

#: Generator word of the QRT-deautonomization step (rightmost symbol first).
PHI_WORD: Word = parse_word(
    "r w5 w2 w6 w5 w3 w2 w4 w3 w1 w2 w5 w0 w1 w2 w6 w5".split()
)

#: Generator word of the Schlesinger step (rightmost symbol first).
PSI_WORD: Word = parse_word(
    "r w1 w2 w6 w5 w3 w2 w4 w3 w1 w2 w5 w0 w1 w2 w6 w3".split()
)

#: The pair of commuting reflections conjugating psi into phi.
CONJUGATOR_WORD: Word = ("w5", "w3")

#: Push-forward of phi on the Picard lattice (entry [i][j] = coefficient of
#: basis class i in the image of basis class j).
PHI_PIC_ACTION = PicMap(
    (
        (6, 3, 2, 2, 2, 2, 3, 3, 1, 1),
        (3, 1, 1, 1, 1, 1, 1, 1, 0, 0),
        (-2, -1, 0, -1, -1, -1, -1, -1, 0, 0),
        (-2, -1, -1, 0, -1, -1, -1, -1, 0, 0),
        (-2, -1, -1, -1, 0, -1, -1, -1, 0, 0),
        (-2, -1, -1, -1, -1, 0, -1, -1, 0, 0),
        (-1, 0, 0, 0, 0, 0, 0, -1, 0, 0),
        (-1, 0, 0, 0, 0, 0, -1, 0, 0, 0),
        (-3, -1, -1, -1, -1, -1, -1, -1, 0, -1),
        (-3, -1, -1, -1, -1, -1, -1, -1, -1, 0),
    )
)

#: Push-forward of psi on the Picard lattice, same convention.
PSI_PIC_ACTION = PicMap(
    (
        (2, 3, 1, 1, 1, 1, 0, 2, 2, 0),
        (3, 5, 2, 2, 2, 2, 0, 2, 3, 1),
        (-1, -2, 0, -1, -1, -1, 0, -1, -1, 0),
        (-1, -2, -1, 0, -1, -1, 0, -1, -1, 0),
        (-1, -2, -1, -1, 0, -1, 0, -1, -1, 0),
        (-1, -2, -1, -1, -1, 0, 0, -1, -1, 0),
        (-2, -3, -1, -1, -1, -1, 0, -2, -2, -1),
        (0, -1, 0, 0, 0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
        (-2, -2, -1, -1, -1, -1, 0, -1, -2, 0),
    )
)


class SchlesingerParams(_Value):
    """Characteristic indices of the rank-3 Fuchsian system, exact rationals.

    theta01, theta02 are the nonzero indices at the pole z = 0, theta11,
    theta12 those at z = 1, and kappa1..kappa3 the indices at infinity.
    The seven values must satisfy the Fuchs relation (sum zero).
    """

    _fields = ("theta01", "theta02", "theta11", "theta12", "kappa1", "kappa2", "kappa3")

    def __post_init__(self) -> None:
        for name in self._fields:
            if type(value := getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(value))
        if self.fuchs_sum() != 0:
            raise ValueError("Fuchs relation violated: the seven indices must sum to zero")

    def fuchs_sum(self) -> Fraction:
        return sum(_indices(self))

    def shifted(self) -> "SchlesingerParams":
        """Index evolution of one Schlesinger step (_shifted)."""
        return SchlesingerParams(*_shifted(_indices(self), 1))

    def to_json(self) -> dict[str, str]:
        return {name: str(getattr(self, name)) for name in self._fields}


#: The pieces of one generic half-step (see _solve_qrt_relation): x_j, the
#: confined factors of X in q_j; c_j = q_j / x_j; X', what is left of X;
#: s_i, the confined factors of S in A_i; a_i = A_i / s_i; S', what is left
#: of S.  X' and S' are integers, the others lists of integers.
_Pieces = namedtuple("_Pieces", "x c X s a S")


def _solve_qrt_relation(
    u: tuple[int, int],
    v: tuple[int, int],
    r: Sequence[int],
    p: Sequence[int],
    x_seeds: Sequence[int] | None = None,
    s_seeds: Sequence[int] | None = None,
) -> tuple[int, int, _Pieces | None]:
    """Solve (u + v)(u~ + v) = prod_i (v + r_i) / ((v - p_1)(v - p_2)) for u~.

    u = (U : X) and v = (V : W) are integer pairs, a zero second entry
    meaning infinity, and r (four) and p (two) are integers, all scaled by
    one L (the relation is homogeneous of degree 1).  With A_i = V + r_i W,
    q_j = V - p_j W and S = U W + V X, u~ + v = X prod_i A_i / (W q_1 q_2 S).
    The confined factors x_j of X in q_j and s_i of S in A_i cancel first
    (_cancel_pieces).  With the cofactors c_j = q_j / x_j and
    a_i = A_i / s_i, and X' and S' what is left of X and S,

        u~ = ((X' prod_i a_i - V c_1 c_2 S') / W) : (c_1 c_2 S'),

    returned unreduced with its pieces.  W divides that numerator when it
    is prime to L (v in lowest terms); otherwise it stays in the
    denominator.  x_seeds is (c_1, c_2) of the half-step before last, whose
    c_2 and c_1 are x_1 and x_2 here up to a few bits, and s_seeds is
    (a_1..a_4) of the previous half-step, likewise s_1..s_4; without them
    each piece is a direct gcd.  What the seeds miss stays in the pair, for
    the kernel's one gcd.

    Where X, W, S or some A_i or q_j is zero the pieces are None and the
    pair is the bihomogeneous form of bidegree (1, 3) in (u, v), with W
    cancelled symbolically: with Q = q_1 q_2 and the cubic form
    R = (prod_i A_i - V^2 Q) / W, u~ = (X R - V Q U) : (Q S).
    This makes u~ exact on the lines at infinity, and 0/0 a base point.
    """
    U, X = u
    V, W = v
    r1, r2, r3, r4 = r
    p1, p2 = p
    A = (V + r1 * W, V + r2 * W, V + r3 * W, V + r4 * W)
    q = (V - p1 * W, V - p2 * W)
    S = U * W + V * X
    if X and W and S and all(A) and all(q):
        x, c, X = _cancel_pieces(q, X, x_seeds and x_seeds[::-1])
        s, a, S = _cancel_pieces(A, S, s_seeds)
        pieces = _Pieces(x, c, X, s, a, S)
        c12S = c[0] * c[1] * S
        num = (a[0] * a[1]) * (a[2] * a[3]) * X - V * c12S
        quotient, rest = divmod(num, W)
        return (num, W * c12S, pieces) if rest else (quotient, c12S, pieces)
    s12, s34, m12, m34 = r1 + r2, r3 + r4, r1 * r2, r3 * r4
    W2 = W * W
    Q = q[0] * q[1]
    R = (
        (((s12 + s34 + p1 + p2) * V + (m12 + m34 + s12 * s34 - p1 * p2) * W) * V
         + (s12 * m34 + s34 * m12) * W2) * V
        + m12 * m34 * W2 * W
    )
    return X * R - V * Q * U, Q * S, None


def _cancel_pieces(
    factors: Sequence[int], n: int, seeds: Sequence[int] | None
) -> tuple[list[int], list[int], int]:
    """([g_i], [factors[i] / g_i], n / prod g_i) for divisors g_i of factors[i] whose product divides n.

    Without seeds g_i = gcd(factors[i], n / (g_1 .. g_(i-1))).  With seeds
    g_i = gcd(factors[i], seeds[i]), less the few bits of their product that
    n does not hold.  A seed shares nearly all its bits with the factor, so
    one long division finds both g_i and the cofactor (_divide_out).
    """
    gs, cofactors = [], []
    if seeds is None:
        for m in factors:
            g = math.gcd(m, n)
            n //= g
            gs.append(g)
            cofactors.append(m // g)
        return gs, cofactors, n
    for m, seed in zip(factors, seeds):
        g, cofactor = _divide_out(m, seed)
        gs.append(g)
        cofactors.append(cofactor)
    total = math.prod(gs)
    excess = total // math.gcd(n, total)
    if excess > 1:
        total //= excess
        for i, g in enumerate(gs):
            shared = math.gcd(g, excess)
            gs[i] = g // shared
            cofactors[i] *= shared
            excess //= shared
    return gs, cofactors, n // total


def _divide_out(m: int, seed: int) -> tuple[int, int]:
    """(g, m / g) for g = gcd(m, seed), seed nonzero, with one long division.

    With m = k |seed| + rest, g = gcd(|seed|, rest) and m / g =
    k |seed| / g + rest / g: when rest is 0 they are |seed| and k.
    """
    seed = abs(seed)
    k, rest = divmod(m, seed)
    if not rest:
        return seed, k
    g = math.gcd(seed, rest)
    return g, k * (seed // g) + rest // g


def _phi_kernel(
    b: Sequence[int], f: tuple[int, int], g: tuple[int, int], scale: int, carry: tuple | None = None
) -> tuple[tuple[int, ...], tuple[int, int], tuple[int, int], tuple]:
    """phi on L b and the pairs of f and g, for L = scale: L b~, the pairs of f~ and g~, and the pieces.

    Each relation is one _solve_qrt_relation on the pairs of L f and L g:
    the first with (u, v) = (f, g), the second, at the new parameters, with
    (u, v) = (-g, -f~), r = b~1..b~4 and p = (b~7, b~8).  f and g may be any
    representatives; f~ and g~ come out reduced, each by one _lowest_terms.
    carry holds the _Pieces of the previous step's two half-steps, each None
    where its half-step was not generic, and the result holds this step's.
    Raises Indeterminate only at base points.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    d = b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8
    new_b = (b1, b2, b3, b4, b5 + d, b6 + d, b7 - d, b8 - d)
    roots = new_b[:4]
    first, second = carry or (None, None)
    f, g = _scaled(f, scale), _scaled(g, scale)
    try:
        num, den, first = _solve_qrt_relation(f, g, roots, (b5, b6), first and first.c, second and second.a)
        f_new = _lowest_terms(num, den * scale)
        f_num, f_den = _scaled(f_new, scale)
        num, den, second = _solve_qrt_relation(
            (-g[0], g[1]), (-f_num, f_den), roots, new_b[6:], second and second.c, first and first.a
        )
        g_new = _lowest_terms(-num, den * scale)
    except Indeterminate as exc:
        raise Indeterminate("phi hit a base point", symbol="phi") from exc
    return new_b, f_new, g_new, (first, second)


def phi_integers(b: Sequence[int], f: tuple[int, int], g: tuple[int, int]) -> tuple:
    """phi on L b and the pairs (num : den) of L f and L g: L b~ and the pairs of L f~ and L g~.

    The kernel at scale 1, each pair in lowest terms, as eval_integers puts a word's.
    """
    return _phi_kernel(b, f, g, 1)[:3]


def phi_step(b: ParamVector, p: SurfacePoint) -> tuple[ParamVector, SurfacePoint]:
    """One step of the deautonomized QRT dynamics on (b; f, g): the kernel on L b, without a carry."""
    scale, ints = scale_to_integers(b.b)
    new_b, f, g, _ = _phi_kernel(ints, p.f.pair(), p.g.pair(), scale)
    return ParamVector(tuple(Fraction(x, scale) for x in new_b)), SurfacePoint(_coord(*f), _coord(*g))


def _psi_closed_form(values: Sequence, one, nonzero: Callable) -> tuple:
    """psi's closed form (x, y) -> (x~, y~) as pairs (num, den); values are theta01..kappa3, x, y.

    Written once for any commutative ring with unit one: every denominator
    passes through nonzero, and a zero raises Indeterminate.  With the map's
    alpha = An / Ad and beta = Bn / Ad, and D = An - Bn, x~ is
    D (An x d12 + (one + t02) H Ad) / (Ad (D H - An (t11 + one) dt)) and y~ is
    D (y (x + dt) - t12 x) / (An dt), homogeneous of degree 1 when one has
    weight 1: on the integers of L (theta, x, y), with one = L, the pairs of
    L x~ and L y~.
    """
    t01, t02, t11, t12, k1, k2, k3, x, y = values
    dt, d12 = t01 - t02, t11 - t12
    y12, y02 = y - t12, y + t02
    P = y12 * (x - t02) + t01 * y02
    H = x * y12 + dt * y
    xs = x + dt
    r1 = k1 * k2 + k2 * k3 + k3 * k1 - P - t11 * (t01 + t02 + t12)
    r2 = k1 * k2 * k3 + t11 * P

    Ad = xs * (x + y) * d12
    An = y * r1 * xs + x * (t01 * r1 + r2)
    D = An - (y02 * r1 + r2) * xs
    x_den = D * H - An * (t11 + one) * dt
    y_den = An * dt
    if not (nonzero(Ad) and nonzero(x_den) and nonzero(y_den)):
        raise Indeterminate("psi hit a base point", symbol="psi")
    return (D * (An * x * d12 + (one + t02) * H * Ad), Ad * x_den), (D * (y * xs - t12 * x), y_den)


#: The prime of the exact screen in psi_orbit.
_SCREEN_PRIME = 2 ** 61 - 1


def _psi_defined(values: Sequence[Fraction]) -> bool:
    """True if psi's closed form is defined at values (theta01..kappa3, x, y).

    That holds when, modulo _SCREEN_PRIME, no denominator of the inputs or of
    the map has a zero residue.  False means only that the screen failed,
    not that the map is undefined over Q.
    """
    try:
        residues = [v.numerator * pow(v.denominator, -1, _SCREEN_PRIME) % _SCREEN_PRIME for v in values]
        _psi_closed_form(residues, 1, lambda v: v % _SCREEN_PRIME)
        return True
    except (ValueError, Indeterminate):
        return False


def _indices(t: SchlesingerParams) -> tuple[Fraction, ...]:
    """The seven indices theta01..kappa3 of t, in field order."""
    return tuple(getattr(t, name) for name in t._fields)


def _shifted(indices: Sequence, one) -> tuple:
    """The indices after one Schlesinger step: theta01 - one, theta11 + one."""
    return (indices[0] - one, indices[1], indices[2] + one, *indices[3:])


def psi_step(t: SchlesingerParams, x, y) -> tuple[SchlesingerParams, Fraction, Fraction]:
    """One elementary Schlesinger step on the indices and the point (x, y).

    The closed form on the integers of L (theta, x, y), one gcd per coordinate.
    Raises Indeterminate when any denominator of the map vanishes at the sample.
    """
    one, values = scale_to_integers((*_indices(t), Fraction(x), Fraction(y)))
    (x_num, x_den), (y_num, y_den) = _psi_closed_form(values, one, bool)
    return t.shifted(), Fraction(x_num, x_den * one), Fraction(y_num, y_den * one)


def _chart_dictionary(indices: Sequence, one) -> tuple:
    """b of the chart dictionary, over any ring with unit one (on L theta with one = L, L b)."""
    t01, t02, t11, t12, k1, k2, k3 = indices
    return (t02 + k1, t02 + k2, t02 + k3, 0, t11, t12, t01 - t02, -t02 - one)


def _matched_dictionary(indices: Sequence, one) -> tuple:
    """b of the matched dictionary at the indices, as _chart_dictionary."""
    t01, t02, t11, t12, k1, k2, k3 = indices
    return (-k1 - t01 - t11, k2 + t02, k3 + t02, 0, t01 - t02, k1 + t01 + t12, t11, k1 + t11 - one)


def _change_of_variables(indices: Sequence, x: tuple, y: tuple) -> tuple[tuple, tuple]:
    """(f, g) as pairs (num, den) at the pairs x = (x0 : x1), y = (y0 : y1), x1 and y1 nonzero.

    Homogeneous of degree 1: at L theta and the pairs of L x, L y, the pairs
    of L f, L g.  Raises Indeterminate where a den is zero.
    """
    t01, t02, t11, t12, k1, k2, k3 = indices
    (x0, x1), (y0, y1) = x, y
    c = k1 + t02
    f = x0 * (y0 - t11 * y1) - (c + t11) * y0 * x1, (y0 + c * y1) * x1
    g = x0 * (y0 + (k1 + t01) * y1) + (t01 - t02) * y0 * x1, (x0 - c * x1) * y1
    if not (f[1] and g[1]):
        raise Indeterminate("change of variables undefined at the sample")
    return f, g


def b_from_schlesinger_chart(t: SchlesingerParams) -> ParamVector:
    """Canonical parameters read off psi's own blowup-point positions.

    The parameter sum is always -1 (one Schlesinger step is a unit shift).
    """
    return ParamVector(_chart_dictionary(_indices(t), 1))


def b_from_schlesinger_matched(t: SchlesingerParams) -> ParamVector:
    """Canonical parameters under which psi becomes phi on the nose.

    This is the first dictionary transported by the conjugating pair of
    reflections w5, w3.
    """
    return ParamVector(_matched_dictionary(_indices(t), 1))


def change_of_variables(t: SchlesingerParams, x, y) -> tuple[Fraction, Fraction]:
    """The explicit coordinate change (x, y) -> (f, g) transporting psi to phi.

    After one psi step, the same formulas at the shifted indices map
    (x~, y~) to (f~, g~).  Runs on the integers of L (theta, x, y).
    """
    one, values = scale_to_integers((*_indices(t), Fraction(x), Fraction(y)))
    (f_num, f_den), (g_num, g_den) = _change_of_variables(values[:7], (values[7], 1), (values[8], 1))
    return Fraction(f_num, f_den * one), Fraction(g_num, g_den * one)


def change_of_variables_inverse(t: SchlesingerParams, f, g) -> tuple[Fraction, Fraction]:
    """Inverse coordinate change (f, g) -> (x, y).

    The conjugating pair w5, w3 is an involution of the family, so the
    inverse is the same pair evaluated at the transported parameters.
    """
    b = b_from_schlesinger_matched(t)
    _, point = eval_word(CONJUGATOR_WORD, b, SurfacePoint.affine(f, g))
    if not point.is_finite:
        raise Indeterminate("inverse change of variables is infinite at the sample")
    return point.f.as_fraction(), point.g.as_fraction()


def sample_schlesinger(rng: random.Random, bound: int = 100) -> SchlesingerParams:
    """Random indices satisfying the Fuchs relation (kappa3 balances the sum)."""
    vals = [sample_fraction(rng, bound) for _ in range(6)]
    kappa3 = -sum(vals, Fraction(0))
    return SchlesingerParams(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], kappa3)


class CheckResult(_Value):
    """One named check: whether it passed, its accepted and rejected samples, a note and a counterexample dict."""

    _fields = ("name", "passed", "samples", "rejected", "note", "counterexample")
    _defaults = (0, 0, "", None)

    @classmethod
    def sampled(
        cls, name: str, comparison: MapComparison, fields: tuple[str, ...] = ("b", "point")
    ) -> "CheckResult":
        """The result of a randomized check.

        fields name the parts of a sample, or the sample itself when there
        is one field; the first failing sample becomes the counterexample.
        """
        counterexample = None
        if comparison.counterexample is not None:
            parts = comparison.counterexample if len(fields) > 1 else (comparison.counterexample,)
            counterexample = {field: _sample_json(v) for field, v in zip(fields, parts)}
        return cls(
            name, comparison.equal, comparison.samples, comparison.rejected,
            counterexample=counterexample,
        )

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "passed": self.passed,
            "samples": self.samples,
            "rejected": self.rejected,
        }
        if self.note:
            out["note"] = self.note
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _sample_json(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    return list(value) if isinstance(value, tuple) else str(value)


class EquivalenceReport(_Value):
    """The CheckResults of verify_equivalence."""

    _fields = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def verify_equivalence(
    trials: int = 25,
    seed: int = 0,
    bound: int = SAMPLE_BOUND,
    draw: Callable[[int], tuple] | None = None,
) -> EquivalenceReport:
    """Pointwise verification that the two dynamics are the same map.

    Two checks, both exact at seeded generic rational samples:

    1. conjugation: phi equals w5 o w3 o psi o (w5 o w3)^-1, with psi
       realized as its generator word on the canonical chart;
    2. transported dynamics: the change of variables intertwines one psi
       step (in (x, y)) with one phi step (in (f, g)) under the matched
       dictionary, including the parameter evolution.

    Both compare on integers, each sample scaled once (every map involved is
    homogeneous of degree 1).  The conjugation samples, from draw (by default
    _scaled_state_draw(seed, bound)), have numerators and denominators up to
    bound, the Schlesinger samples of the transport check up to 100.  Raises
    ValueError when trials is below 1, since neither check would then
    compare a sample.
    """
    conjugated = CONJUGATOR_WORD + PSI_WORD + tuple(reversed(CONJUGATOR_WORD))
    word = partial(eval_integers, conjugated)
    conjugation = integer_maps_equal(phi_integers, word, trials, draw or _scaled_state_draw(seed, bound))

    def draw_schlesinger(index: int) -> tuple[SchlesingerParams, Fraction, Fraction]:
        rng = random.Random(f"equivalence:{seed}:{index}")
        return sample_schlesinger(rng), sample_fraction(rng, 100), sample_fraction(rng, 100)

    def transported(sample: tuple[SchlesingerParams, Fraction, Fraction]) -> bool | None:
        t, x, y = sample
        one, values = scale_to_integers((*_indices(t), x, y))
        indices, new_indices = values[:7], _shifted(values[:7], one)
        f_new, g_new = _change_of_variables(new_indices, *_psi_closed_form(values, one, bool))
        f, g = _change_of_variables(indices, (values[7], 1), (values[8], 1))
        b_phi, f_phi, g_phi = phi_integers(_matched_dictionary(indices, one), f, g)
        if not (f_phi[1] and g_phi[1]):
            return None
        expected = _matched_dictionary(new_indices, one), _lowest_terms(*f_new), _lowest_terms(*g_new)
        return (b_phi, f_phi, g_phi) == expected

    transport = sample_check(trials, draw_schlesinger, transported, "Schlesinger samples")
    return EquivalenceReport(
        (
            CheckResult.sampled("conjugation", conjugation),
            CheckResult.sampled("transported_dynamics", transport, ("theta", "x", "y")),
        )
    )


class OrbitEntry(_Value):
    """One state of an orbit: its step, parameters (ParamVector or SchlesingerParams) and point pair."""

    _fields = ("step", "params", "point")


class OrbitTrace(_Value):
    """An orbit of the map kind ("phi" or "psi") as a tuple of OrbitEntry."""

    _fields = ("kind", "entries")

    def __len__(self) -> int:
        return len(self.entries)


def phi_orbit(b: ParamVector, p: SurfacePoint, steps: int) -> OrbitTrace:
    """Iterate phi, recording every exact state (including the initial one).

    b is scaled to integers once and the point runs as integer pairs, each
    step handing its cofactors to the next (see the module docstring); the
    states, each pair wrapped once, are those of iterated phi_step.  On an
    indeterminate point the raised error carries the partial trace.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    entries = [OrbitEntry(0, b, (p.f, p.g))]
    scale, ints = scale_to_integers(b.b)
    f, g, carry = p.f.pair(), p.g.pair(), None
    for k in range(1, steps + 1):
        try:
            ints, f, g, carry = _phi_kernel(ints, f, g, scale, carry)
        except Indeterminate as exc:
            exc.partial_trace = OrbitTrace("phi", tuple(entries))
            raise
        params = ParamVector(tuple(Fraction(x, scale) for x in ints))
        entries.append(OrbitEntry(k, params, (_coord(*f), _coord(*g))))
    return OrbitTrace("phi", tuple(entries))


def _psi_from_pieces(b: Sequence[int], scale: int, f: tuple[int, int], carry: tuple) -> tuple | None:
    """psi's (x, y) at phi's chart state (L b; f, g), L = scale, f a pair, as two unreduced integer pairs.

    carry holds the pieces of the step that reached the state, and the
    pairs are the module docstring's formulas for w5 o w3 at b.  Where W
    does not divide K = X' a_2 a_3 a_4 - c_1 c_2 s_1 S', K stays whole and W
    moves into y's denominator.  None where the second half-step was not
    generic or y = b~7 (K = 0): there psi_orbit runs psi_step.
    """
    first, second = carry
    if second is None:
        return None
    (x1, _), (c1, c2), X, (s1, *_), (_, a2, a3, a4), S = second
    f_num, W = _scaled(f, scale)
    P = X * a2 * a3 * a4
    c2s1S = c2 * s1 * S
    K, W_y = P - c1 * c2s1S, W
    quotient, rest = divmod(K, W)
    if not rest:
        K, W_y = quotient, 1
    if not K:
        return None
    y = b[6] * W_y * c2s1S - x1 * K, scale * W_y * c2s1S
    g, x_num = _divide_out(f_num * K - (b[0] + b[4]) * W_y * P, math.gcd(first.c[1], W) if first else 1)
    return (x_num, scale * (W // g) * K), y


def psi_orbit(t: SchlesingerParams, x, y, steps: int) -> OrbitTrace:
    """Iterate psi, recording every exact state (including the initial one).

    Runs in phi's chart (see the module docstring): the matched b scaled to
    integers once per chart entry, one phi kernel step per step, with the
    pieces carried as in phi_orbit, each state mapped back through w5, w3 at
    the chart's own b, from the step's pieces (_psi_from_pieces).  A step
    runs psi_step itself unless psi's closed form modulo _SCREEN_PRIME
    proves it defined (no denominator has a zero residue) and the
    pieces yield a state; the chart and its pieces are then dropped, and the
    next step re-enters the chart.  The states, the failing step and the
    partial trace carried by the raised error are those of iterated psi_step.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x, y = Fraction(x), Fraction(y)
    entries = [OrbitEntry(0, t, (x, y))]
    chart = None  # phi's (L b, L, the pairs of f and g, carried pieces) at the current state, once entered
    for k in range(1, steps + 1):
        state = None
        if _psi_defined((*_indices(t), x, y)):
            try:
                if chart is None:
                    scale, b = scale_to_integers(b_from_schlesinger_matched(t).b)
                    one, values = scale_to_integers((*_indices(t), x, y))
                    fg = _change_of_variables(values[:7], (values[7], 1), (values[8], 1))
                    chart = b, scale, *(_lowest_terms(num, den * one) for num, den in fg), None
                b, scale, f, g, carry = chart
                b, f, g, carry = _phi_kernel(b, f, g, scale, carry)
                chart = b, scale, f, g, carry
                pairs = _psi_from_pieces(b, scale, f, carry)
                if pairs is not None:
                    state = t.shifted(), Fraction(*pairs[0]), Fraction(*pairs[1])
            except Indeterminate:
                pass
        if state is None:
            chart = None  # re-entered from the exact state at the next step
            try:
                state = psi_step(t, x, y)
            except Indeterminate as exc:
                exc.partial_trace = OrbitTrace("psi", tuple(entries))
                raise
        t, x, y = state
        entries.append(OrbitEntry(k, t, (x, y)))
    return OrbitTrace("psi", tuple(entries))


def orbit(kind: str, state: Sequence, steps: int) -> OrbitTrace:
    """Dispatching front end: kind is "phi" (b, point) or "psi" (t, x, y)."""
    if kind == "phi":
        b, p = state
        return phi_orbit(b, p, steps)
    if kind == "psi":
        t, x, y = state
        return psi_orbit(t, x, y, steps)
    raise ValueError(f"unknown map {kind!r}")
