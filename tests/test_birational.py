"""Projective coordinates and the elementary birational maps."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from e6painleve.birational import (
    Form,
    Indeterminate,
    ParamVector,
    ProjectiveCoord,
    SurfacePoint,
    TooManyDegenerateSamples,
    eval_integers,
    eval_step,
    eval_word,
    generator_step,
    maps_equal,
    param_rows,
    sample_check,
    sample_fraction,
    word_map,
)
from e6painleve import birational
from e6painleve.models import CONJUGATOR_WORD, PHI_WORD
from e6painleve.periodmap import scale_to_integers
from e6painleve.piclattice import E6_EDGES
from e6painleve.serialize import decimal_str
from e6painleve.weylgroup import REFLECTION_SYMBOLS, SYMBOLS
from oracles import (
    PARAM_TABLES,
    FractionCoord,
    ProjectiveValue,
    coord_oracle,
    eval_integers_oracle,
    form_oracle,
    param_oracle,
    param_rows_oracle,
)


def test_projective_coord_canonicalization():
    assert ProjectiveCoord(2, 4) == ProjectiveCoord.finite(Fraction(1, 2))
    assert ProjectiveCoord(5, 0) == ProjectiveCoord.infinity()
    assert ProjectiveCoord(-3, 0) == ProjectiveCoord.infinity()
    with pytest.raises(Indeterminate):
        ProjectiveCoord(0, 0)


_coordinate_int = st.one_of(st.integers(-12, 12), st.integers(-2 ** 80, 2 ** 80))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_coordinate_int, _coordinate_int, st.integers(-4, 4), _coordinate_int, _coordinate_int)
def test_projective_coord_matches_the_fraction_coordinate(n, d, k, n2, d2):
    # The integer pair in lowest terms behaves as the former coordinate on
    # two Fractions: the same points are equal, print and encode the same,
    # and 0/0 raises in both.  The second pair is a multiple k of the
    # first, a projectively equal pair when k is nonzero, or an unrelated one.
    coords = []
    for num, den in ((n, d), (k * n, k * d) if k else (n2, d2)):
        try:
            oracle = FractionCoord(Fraction(num), Fraction(den))
        except Indeterminate:
            with pytest.raises(Indeterminate):
                ProjectiveCoord(num, den)
            return
        c = ProjectiveCoord(num, den)
        assert (c.to_json(), str(c), c.is_finite) == (oracle.to_json(), str(oracle), oracle.is_finite)
        if c.is_finite:
            assert c.as_fraction() == oracle.as_fraction()
            assert decimal_str(c) == decimal_str(c.as_fraction())
        else:
            with pytest.raises(ValueError):
                c.as_fraction()
        coords.append((c, oracle))
    (c1, o1), (c2, o2) = coords
    assert (c1 == c2) == (o1 == o2)
    assert c1 != c2 or hash(c1) == hash(c2)


def test_projective_arithmetic():
    two, inf, zero = ProjectiveValue(2), ProjectiveValue(1, 0), ProjectiveValue(0)
    assert (two + inf).coord == inf.coord
    assert (two / zero).coord == inf.coord
    assert (two / inf).coord == zero.coord
    assert (inf * two).coord == inf.coord
    with pytest.raises(Indeterminate):
        inf - inf
    with pytest.raises(Indeterminate):
        inf * zero
    with pytest.raises(Indeterminate):
        zero / zero
    with pytest.raises(Indeterminate):
        inf / inf


def test_projective_coord_has_no_arithmetic():
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__"):
        assert not hasattr(ProjectiveCoord, name), name


def test_expression_evaluation_is_projective():
    # equal projective inputs give equal outputs regardless of representative
    step = generator_step("w3")
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    p1 = SurfacePoint(ProjectiveCoord(4, 2), ProjectiveCoord.finite(3))
    p2 = SurfacePoint.affine(2, 3)
    assert eval_step(step, b, p1) == eval_step(step, b, p2)


def test_w3_worked_example():
    # b1 = 1, b7 = 2, point (2, 3): the second coordinate moves to 18.
    b = ParamVector.of(1, 9, 4, 7, 5, 6, 2, 8)
    new_b, new_p = eval_step(generator_step("w3"), b, SurfacePoint.affine(2, 3))
    assert new_p.f.as_fraction() == 2
    assert new_p.g.as_fraction() == 18
    assert new_b.b[0] == -2  # -b7
    assert new_b.b[6] == -1  # -b1
    assert new_b.b[4] == Fraction(5) + 1 + 2  # b5 + b1 + b7
    assert new_b.b[5] == Fraction(6) + 1 + 2


def test_w1_swaps_parameters_only():
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    p = SurfacePoint.affine(Fraction(9, 7), Fraction(-2, 5))
    new_b, new_p = eval_step(generator_step("w1"), b, p)
    assert new_p == p
    assert new_b == ParamVector.of(1, 3, 2, 4, 5, 6, 7, 8)


def test_w3_indeterminate_at_base_point():
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(Indeterminate):
        eval_step(generator_step("w3"), b, SurfacePoint.affine(1, -1))


def test_eval_word_involution_and_step_index():
    rng = random.Random(2)
    for _ in range(10):
        b = ParamVector(tuple(sample_fraction(rng, 50) for _ in range(8)))
        p = SurfacePoint.affine(sample_fraction(rng, 50), sample_fraction(rng, 50))
        try:
            assert eval_word(("w3", "w3"), b, p) == (b, p)
        except Indeterminate:
            continue
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(Indeterminate) as info:
        eval_word(("w1", "w3"), b, SurfacePoint.affine(1, -1))
    assert info.value.step_index == 0
    assert info.value.symbol == "w3"


def test_eval_word_passes_unchanged_coordinates_through(monkeypatch):
    # w3 changes only g, w5 only f, and w1, w2, w4, w6 neither: every
    # coordinate is unscaled once, by one _coord on a pair already in lowest
    # terms, and one that no letter changes comes back equal to the input.
    calls = []
    wrap = birational._coord

    def counting(num, den):
        calls.append((num, den))
        return wrap(num, den)

    monkeypatch.setattr(birational, "_coord", counting)
    b = ParamVector.of(Fraction(1, 2), 2, 3, 4, 5, 6, 7, Fraction(8, 3))
    for p in (
        SurfacePoint.affine(Fraction(17, 5), Fraction(23, 9)),
        SurfacePoint(ProjectiveCoord.infinity(), ProjectiveCoord.finite(Fraction(3))),
    ):
        cases = [(CONJUGATOR_WORD, ""), (("w3",), "f"), (("w5",), "g")] + [((s,), "fg") for s in ("w1", "w2", "w4", "w6")]
        for word, unchanged in cases:
            calls.clear()
            point = eval_word(word, b, p)[1]
            assert len(calls) == 2 and all(math.gcd(*pair) == 1 for pair in calls), word
            assert all(getattr(point, c) == getattr(p, c) for c in unchanged), word


def test_eval_word_divides_the_scale_out_with_one_gcd_against_it():
    # A pair leaving eval_integers is coprime, so gcd(num, den L) = gcd(num, L).
    rng = random.Random(23)
    pairs = [(1, 0), (0, 1), (-1, 1)] + [
        birational._lowest_terms(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12)) for _ in range(300)
    ]
    for pair in pairs:
        scale = rng.randint(2, 10**6)
        assert birational._unscaled(pair, scale) == ProjectiveCoord(pair[0], pair[1] * scale), pair
    b = ParamVector.of(Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), 4, Fraction(5, 6), 6, Fraction(-7, 8), 8)
    for p in (
        SurfacePoint.affine(Fraction(-17, 5), Fraction(23, 9)),
        SurfacePoint(ProjectiveCoord.infinity(), ProjectiveCoord.finite(Fraction(-3, 7))),
        SurfacePoint(ProjectiveCoord.finite(Fraction(3, 11)), ProjectiveCoord.infinity()),
    ):
        scale, ints = scale_to_integers(b.b)
        for word in (CONJUGATOR_WORD, PHI_WORD, PHI_WORD * 3, ("w3",), ("w5",), ("m1",), ("r2", "w0")):
            _, f, g = eval_integers(word, ints, p.f.pair(scale), p.g.pair(scale))
            q = eval_word(word, b, p)[1]
            assert q == SurfacePoint(ProjectiveCoord(f[0], f[1] * scale), ProjectiveCoord(g[0], g[1] * scale)), word


@pytest.mark.parametrize("text", ("f + h", "f + 0.5", "g*b9", "f + True", "b0*f", "f**2", "f/g/b1", "abs(f)"))
def test_form_parse_rejects_other_names_constants_and_operations(text):
    # h is no variable, 0.5 and True are no ints, b9 and b0 are no parameters.
    with pytest.raises(ValueError):
        Form.parse(text)


def test_compiled_forms_match_their_term_tables():
    rng = random.Random(27)
    forms = [Form.parse(text) for text in ("0", "-7", "-3*b2*f + 2", "f*g - b8*b8", "(f - g)/(b1*b2 + 1)")]
    forms += [form for s in SYMBOLS for form in (generator_step(s).coord_f, generator_step(s).coord_g)]
    for form in forms:
        for _ in range(40):
            f, g = ((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2))
            b = tuple(rng.randint(-9, 9) for _ in range(8))
            assert form(f, g, b) == form_oracle(form, f, g, b), str(form)


def _eval_outcome(evaluate, word, b, f, g):
    try:
        return evaluate(word, b, f, g)
    except Indeterminate as exc:
        return exc.step_index, exc.symbol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    word=st.integers(0, 40).flatmap(lambda n: st.lists(st.sampled_from(SYMBOLS), min_size=n, max_size=n)).map(tuple),
    seed=st.integers(0, 10**6),
    bound=st.sampled_from((2, 5, 10_000)),
    point=st.sampled_from(("drawn", "f at infinity", "g at infinity", "both at infinity", "(b1, -b1)", "(b2, -b2)")),
)
def test_eval_integers_matches_the_generic_evaluation(word, seed, bound, point):
    # The compiled kernel against the term tables walked letter by letter:
    # the same values, the same base point, and unchanged coordinates
    # passed through as the same objects.
    _, (b, f, g) = birational._scaled_state_draw(seed, bound)(1)
    f_inf, g_inf = (1, 0), (-1, 0)  # both infinity, and distinct objects
    f, g = {
        "drawn": (f, g),
        "f at infinity": (f_inf, g),
        "g at infinity": (f, g_inf),
        "both at infinity": (f_inf, g_inf),
        "(b1, -b1)": ((b[0], 1), (-b[0], 1)),
        "(b2, -b2)": ((b[1], 1), (-b[1], 1)),
    }[point]
    expected = _eval_outcome(eval_integers_oracle, word, b, f, g)
    got = _eval_outcome(eval_integers, word, b, f, g)
    assert got == expected
    if len(expected) == 3:
        assert (got[1] is f, got[2] is g) == (expected[1] is f, expected[2] is g)


def test_reflections_are_pointwise_involutions():
    identity = lambda b, p: (b, p)
    for s in REFLECTION_SYMBOLS:
        result = maps_equal(word_map((s, s)), identity, trials=25, seed=3)
        assert result.equal, s


def test_automorphism_orders_pointwise():
    identity = lambda b, p: (b, p)
    for s in ("m0", "m1", "m2"):
        assert maps_equal(word_map((s, s)), identity, trials=25, seed=4).equal
    assert maps_equal(word_map(("r", "r", "r")), identity, trials=25, seed=5).equal
    assert maps_equal(word_map(("r", "r")), word_map(("r2",)), trials=25, seed=6).equal


def test_braid_identities_pointwise():
    for i, j in sorted(E6_EDGES):
        result = maps_equal(
            word_map((f"w{i}", f"w{j}", f"w{i}")),
            word_map((f"w{j}", f"w{i}", f"w{j}")),
            trials=25,
            seed=7,
        )
        assert result.equal, (i, j)


def test_semidirect_pointwise():
    assert maps_equal(word_map(("m1", "w0", "m1")), word_map(("w4",)), trials=25, seed=8).equal


def test_w3_w5_commute_pointwise():
    assert maps_equal(word_map(("w5", "w3")), word_map(("w3", "w5")), trials=25, seed=9).equal


def test_map_equals_itself():
    step = word_map(("w3",))
    assert maps_equal(step, step, trials=10, seed=0).equal


def test_w3_and_w5_differ():
    result = maps_equal(word_map(("w3",)), word_map(("w5",)), trials=25, seed=10)
    assert not result.equal
    assert result.counterexample is not None
    assert result.samples == 1  # first defined sample already separates them


def test_gauge_normalization():
    rng = random.Random(11)
    for _ in range(25):
        b = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
        for s in SYMBOLS:
            new_b = generator_step(s).apply_params(b)
            assert new_b.b[3] == b.b[3], s
            assert new_b.chi_delta() == b.chi_delta(), s


def test_parameter_action_matches_oracle_tables():
    rng = random.Random(12)
    for _ in range(25):
        b = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
        for s in SYMBOLS:
            assert generator_step(s).apply_params(b).b == param_oracle(s, b.b), s


def test_parameter_rows_match_oracle_tables():
    for s in SYMBOLS:
        rows = param_rows(s)
        assert len(rows) == 8, s
        for row, oracle_row in zip(rows, PARAM_TABLES[s]):
            assert all(type(c) is int and c != 0 for _, c in row), s
            assert dict(row) == {j - 1: c for j, c in oracle_row.items()}, s


def test_parameter_rows_match_their_fraction_derivation():
    # The integer fold and param_values against root_variable_evolution and
    # params_from_root_variables on the eight unit ParamVectors.
    for s in SYMBOLS:
        assert param_rows(s) == param_rows_oracle(s), s


def _oracle_step(symbol, b, p):
    """Reference step: the affine oracle formulas and parameter tables."""
    f, g = coord_oracle(symbol, b.b, p.f.as_fraction(), p.g.as_fraction())
    return ParamVector(param_oracle(symbol, b.b)), SurfacePoint.affine(f, g)


def _oracle_word(word, b, p):
    for symbol in reversed(word):
        b, p = _oracle_step(symbol, b, p)
    return b, p


def _sample_params(rng):
    return ParamVector(tuple(sample_fraction(rng, 50) for _ in range(8)))


def _generic_params(rng):
    """Parameters with eight distinct nonzero |b_k|.

    Then no two base points of a step coincide.  Where they do (b1 = b2
    merges (b1, -b1) and (b2, -b2) into an infinitely near base point), the
    map stays indeterminate, but limits along straight lines no longer show
    it, so the limit checks below need generic parameters.
    """
    while True:
        b = _sample_params(rng)
        if len({abs(x) for x in b.b} - {0}) == 8:
            return b


EPS = Fraction(1, 10**40)
NEAR = Fraction(1, 10**20)


def _approach(symbol, b, p, rng):
    """The oracle at a point within EPS of p, from a generic rational direction.

    A finite coordinate c is approached as c + u EPS, infinity as 1/(u EPS).
    """
    f, g = (
        c.as_fraction() + u * EPS if c.is_finite else 1 / (u * EPS)
        for c, u in ((p.f, sample_fraction(rng, 10**9) or 1), (p.g, sample_fraction(rng, 10**9) or 1))
    )
    return coord_oracle(symbol, b.b, f, g)


def _near(value, c):
    return abs(value - c.as_fraction()) < NEAR if c.is_finite else abs(value) > 1 / NEAR


def _approaches_part(symbol, b, p, rng):
    """Whether the oracle tends to different values along two generic approaches to p.

    They part exactly when p is a base point of the map.
    """
    first, second = _approach(symbol, b, p, rng), _approach(symbol, b, p, rng)
    return not all(abs(x - y) < NEAR or min(abs(x), abs(y)) > 1 / NEAR for x, y in zip(first, second))


def _outcome(symbol, b, p, rng):
    """eval_step's image of p, checked against the oracle's limit at p."""
    try:
        _, image = eval_step(generator_step(symbol), b, p)
    except Indeterminate:
        assert _approaches_part(symbol, b, p, rng), (symbol, p)
        return "indeterminate"
    for coord, x, y in zip((image.f, image.g), _approach(symbol, b, p, rng), _approach(symbol, b, p, rng)):
        assert _near(x, coord) and _near(y, coord), (symbol, p)
    return image


def test_steps_match_oracle_at_finite_points():
    rng = random.Random(21)
    for s in SYMBOLS:
        step = generator_step(s)
        for _ in range(20):
            b = _sample_params(rng)
            p = SurfacePoint.affine(sample_fraction(rng, 50), sample_fraction(rng, 50))
            assert eval_step(step, b, p) == _oracle_step(s, b, p), s


INF = ProjectiveCoord.infinity()

#: Images of (inf, 3), (3, inf) and (inf, inf) at b = (1, ..., 8).  w0 and
#: m0 give the values the expression-tree evaluator gave; every other
#: generator raised at some of these points before.
IMAGES_AT_INFINITY = {
    "w0": ((INF, 2), (4, INF), (INF, INF)),
    "w1": ((INF, 3), (3, INF), (INF, INF)),
    "w2": ((INF, 3), (3, INF), (INF, INF)),
    "w3": ((INF, 11), (3, INF), (INF, INF)),
    "w4": ((INF, 3), (3, INF), (INF, INF)),
    "w5": ((INF, 3), (-3, INF), (INF, INF)),
    "w6": ((INF, 3), (3, INF), (INF, INF)),
    "m0": ((-3, INF), (INF, -3), (INF, INF)),
    "m1": ((INF, 10), (-7, 7), (INF, INF)),
    "m2": ((1, -1), (-2, INF), (INF, INF)),
    "r": ((-10, INF), (-7, 7), (INF, INF)),
    "r2": ((1, -1), (INF, 2), (INF, INF)),
}


def test_exact_images_on_the_lines_at_infinity():
    rng = random.Random(22)
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    three = ProjectiveCoord.finite(3)
    starts = (SurfacePoint(INF, three), SurfacePoint(three, INF), SurfacePoint(INF, INF))
    assert set(IMAGES_AT_INFINITY) == set(SYMBOLS)
    for s, images in IMAGES_AT_INFINITY.items():
        for p, (f, g) in zip(starts, images):
            expected = SurfacePoint(*(c if c is INF else ProjectiveCoord.finite(c) for c in (f, g)))
            assert _outcome(s, b, p, rng) == expected, (s, p)


def test_steps_at_infinity_are_limits_of_the_oracle():
    # The finite coordinate is generic or one of +-b_k, so the base points
    # on the lines at infinity come up too: (-b7, inf) for w3 and (inf, b5)
    # for w5 are the only ones.
    rng = random.Random(23)
    raised = set()
    for s in SYMBOLS:
        for _ in range(3):
            b = _generic_params(rng)
            labels = {"": sample_fraction(rng, 50)}
            for k in range(8):
                labels[f"b{k + 1}"], labels[f"-b{k + 1}"] = b.b[k], -b.b[k]
            for label, x in labels.items():
                x = ProjectiveCoord.finite(x)
                for kind, p in enumerate((SurfacePoint(INF, x), SurfacePoint(x, INF), SurfacePoint(INF, INF))):
                    if _outcome(s, b, p, rng) == "indeterminate":
                        raised.add((s, kind, label if kind < 2 else ""))
    assert raised == {("w3", 1, "-b7"), ("w5", 0, "b5")}

def test_steps_where_an_oracle_denominator_vanishes():
    # f = b1, g = -b1 and f + g = 0 zero the oracle's denominators of w3, w5
    # and the m1, m2, r, r2 formulas.  The step returns the oracle's limit
    # there, infinity included, and raises only at the base points (b1, -b1)
    # and, for the four maps with denominator f + g, (b2, -b2).
    rng = random.Random(24)
    infinite, raised = set(), set()
    for s in SYMBOLS:
        for _ in range(5):
            b = _generic_params(rng)
            b1, b2, t = b.b[0], b.b[1], sample_fraction(rng, 50)
            for kind, (f, g) in enumerate(((b1, t), (t, -b1), (t, -t), (b1, -b1), (b2, -b2))):
                p = SurfacePoint.affine(f, g)
                try:
                    reference = _oracle_step(s, b, p)
                except ZeroDivisionError:
                    reference = None
                got = _outcome(s, b, p, rng)
                if reference is not None:
                    assert got == reference[1], (s, f, g)
                elif got == "indeterminate":
                    raised.add((s, kind))
                elif not got.is_finite:
                    infinite.add(s)
    assert infinite == {"w3", "w5", "m1", "m2", "r", "r2"}
    assert raised == {(s, 3) for s in ("w3", "w5", "m1", "m2", "r", "r2")} | {
        (s, 4) for s in ("m1", "m2", "r", "r2")
    }


def test_base_points_report_step_and_symbol():
    rng = random.Random(25)
    base_point_symbols = set()
    for s in SYMBOLS:
        b = _generic_params(rng)
        p = SurfacePoint.affine(b.b[0], -b.b[0])  # (b1, -b1)
        word = (s, "w1")  # w1 moves b2, b3 only, so (b1, -b1) reaches s unchanged
        try:
            reference = _oracle_word(word, b, p)
        except ZeroDivisionError:
            reference = None
        if reference is not None:
            assert eval_word(word, b, p) == reference, s
            continue
        base_point_symbols.add(s)
        assert _approaches_part(s, generator_step("w1").apply_params(b), p, rng), s
        with pytest.raises(Indeterminate) as info:
            eval_word(word, b, p)
        assert (info.value.step_index, info.value.symbol) == (1, s)
    assert base_point_symbols == {"w3", "w5", "m1", "m2", "r", "r2"}


def _accept_then_reject(accepted: int, rejected: int):
    # A check whose first draws are accepted, the next ones rejected, and
    # every draw after those accepted again.
    return sample_check(
        accepted + 1,
        lambda index: index,
        lambda index: None if accepted < index <= accepted + rejected else True,
        "draws",
    )


def test_rejection_rate_cap():
    # The cap is checked before each draw: 9 rejections with none accepted,
    # or 54 with 5 accepted, may go on; one more rejection stops the loop.
    assert _accept_then_reject(0, 9) == birational.MapComparison(True, 1, 9)
    assert _accept_then_reject(5, 54) == birational.MapComparison(True, 6, 54)
    for accepted, rejected in ((0, 10), (5, 55)):
        with pytest.raises(
            TooManyDegenerateSamples, match=f"rejected {rejected} of {accepted + rejected} draws"
        ):
            _accept_then_reject(accepted, rejected)


def test_sample_check_draws_rejects_and_stops_at_the_first_failure():
    draws = []

    def draw(index):
        draws.append(index)
        return index

    def holds(index):
        if index == 2:
            raise Indeterminate("forced")
        return None if index == 3 else index != 5

    result = sample_check(10, draw, holds, "draws")
    assert result == birational.MapComparison(False, 3, 2, counterexample=5)
    assert draws == [1, 2, 3, 4, 5]
    assert sample_check(3, draw, lambda index: True, "draws") == birational.MapComparison(True, 3, 0)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            sample_check(trials, draw, holds, "draws")


def test_too_many_degenerate_samples():
    def always_indeterminate(b, p):
        raise Indeterminate("forced")

    with pytest.raises(TooManyDegenerateSamples):
        maps_equal(always_indeterminate, always_indeterminate, trials=5, seed=12)


def test_maps_equal_deterministic_in_seed():
    a = word_map(("w3", "w5"))
    b = word_map(("w5", "w3"))
    r1 = maps_equal(a, b, trials=10, seed=42)
    r2 = maps_equal(a, b, trials=10, seed=42)
    assert (r1.equal, r1.samples, r1.rejected) == (r2.equal, r2.samples, r2.rejected)
