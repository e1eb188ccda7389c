"""Projective arithmetic and the elementary birational maps."""

import random
from fractions import Fraction

import pytest

from e6painleve.birational import (
    Indeterminate,
    ParamVector,
    ProjectiveCoord,
    SurfacePoint,
    TooManyDegenerateSamples,
    check_rejection_rate,
    eval_step,
    eval_word,
    generator_step,
    maps_equal,
    param_rows,
    sample_fraction,
    word_map,
)
from e6painleve.piclattice import E6_EDGES
from e6painleve.weylgroup import REFLECTION_SYMBOLS, SYMBOLS
from oracles import PARAM_TABLES, param_oracle


def test_projective_coord_canonicalization():
    assert ProjectiveCoord(Fraction(2), Fraction(4)) == ProjectiveCoord.finite(Fraction(1, 2))
    assert ProjectiveCoord(Fraction(5), Fraction(0)) == ProjectiveCoord.infinity()
    assert ProjectiveCoord(Fraction(-3), Fraction(0)) == ProjectiveCoord.infinity()
    with pytest.raises(Indeterminate):
        ProjectiveCoord(Fraction(0), Fraction(0))


def test_projective_arithmetic():
    two = ProjectiveCoord.finite(2)
    inf = ProjectiveCoord.infinity()
    zero = ProjectiveCoord.finite(0)
    assert (two + inf) == inf
    assert (two / zero) == inf
    assert (two / inf) == zero
    assert (inf * two) == inf
    with pytest.raises(Indeterminate):
        inf - inf
    with pytest.raises(Indeterminate):
        inf * zero
    with pytest.raises(Indeterminate):
        zero / zero
    with pytest.raises(Indeterminate):
        inf / inf


def test_expression_evaluation_is_projective():
    # equal projective inputs give equal outputs regardless of representative
    step = generator_step("w3")
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    p1 = SurfacePoint(ProjectiveCoord(Fraction(4), Fraction(2)), ProjectiveCoord.finite(3))
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


def _tree_step(step, b, p):
    """Reference step: the projective walk of the coordinate trees, oracle parameters."""
    env = {"f": p.f, "g": p.g}
    env.update((f"b{i + 1}", ProjectiveCoord.finite(x)) for i, x in enumerate(b.b))
    new_p = SurfacePoint(step.coord_f.evaluate(env), step.coord_g.evaluate(env))
    return ParamVector(param_oracle(step.name, b.b)), new_p


def _tree_word(word, b, p):
    for pos, symbol in enumerate(reversed(word)):
        try:
            b, p = _tree_step(generator_step(symbol), b, p)
        except Indeterminate as exc:
            raise Indeterminate("reference", step_index=pos, symbol=symbol) from exc
    return b, p


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Indeterminate:
        return "indeterminate"


def _sample_params(rng):
    return ParamVector(tuple(sample_fraction(rng, 50) for _ in range(8)))


def test_compiled_steps_match_tree_walk_at_finite_points():
    rng = random.Random(21)
    for s in SYMBOLS:
        step = generator_step(s)
        for _ in range(20):
            b = _sample_params(rng)
            p = SurfacePoint.affine(sample_fraction(rng, 50), sample_fraction(rng, 50))
            assert eval_step(step, b, p) == _tree_step(step, b, p), s


def test_compiled_steps_match_tree_walk_at_infinity():
    rng = random.Random(22)
    inf = ProjectiveCoord.infinity()
    outcomes = set()
    for s in SYMBOLS:
        step = generator_step(s)
        for _ in range(5):
            b = _sample_params(rng)
            x = ProjectiveCoord.finite(sample_fraction(rng, 50))
            for p in (SurfacePoint(inf, x), SurfacePoint(x, inf), SurfacePoint(inf, inf)):
                expected = _outcome(_tree_step, step, b, p)
                assert _outcome(eval_step, step, b, p) == expected, (s, p)
                outcomes.add(expected == "indeterminate")
    assert outcomes == {True, False}


def test_compiled_steps_match_tree_walk_where_a_denominator_vanishes():
    # f = b1, g = -b1 and f + g = 0 zero the denominators of w3, w5 and the
    # m1, m2, r, r2 formulas; some of these points are base points.
    rng = random.Random(23)
    infinite = set()
    for s in SYMBOLS:
        step = generator_step(s)
        for _ in range(5):
            b = _sample_params(rng)
            b1, b2, t = b.b[0], b.b[1], sample_fraction(rng, 50)
            for f, g in ((b1, t), (t, -b1), (t, -t), (b1, -b1), (b2, -b2)):
                p = SurfacePoint.affine(f, g)
                expected = _outcome(_tree_step, step, b, p)
                assert _outcome(eval_step, step, b, p) == expected, (s, f, g)
                if expected != "indeterminate" and not expected[1].is_finite:
                    infinite.add(s)
    assert infinite == {"w3", "w5", "m1", "m2", "r", "r2"}


def test_base_points_report_step_and_symbol():
    rng = random.Random(24)
    base_point_symbols = set()
    for s in SYMBOLS:
        b = _sample_params(rng)
        p = SurfacePoint.affine(b.b[0], -b.b[0])  # (b1, -b1)
        word = (s, "w1")  # w1 moves b2, b3 only, so (b1, -b1) reaches s unchanged
        reference = _outcome(_tree_word, word, b, p)
        if reference != "indeterminate":
            assert eval_word(word, b, p) == reference, s
            continue
        base_point_symbols.add(s)
        with pytest.raises(Indeterminate) as compiled:
            eval_word(word, b, p)
        with pytest.raises(Indeterminate) as tree:
            _tree_word(word, b, p)
        assert (compiled.value.step_index, compiled.value.symbol) == (1, s)
        assert (tree.value.step_index, tree.value.symbol) == (1, s)
    assert base_point_symbols == {"w3", "w5", "m1", "m2", "r", "r2"}


def test_rejection_rate_cap():
    check_rejection_rate(0, 9, "draws")
    check_rejection_rate(5, 54, "draws")
    for accepted, rejected in ((0, 10), (5, 55)):
        with pytest.raises(TooManyDegenerateSamples, match=f"rejected {rejected} of"):
            check_rejection_rate(accepted, rejected, "draws")


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
