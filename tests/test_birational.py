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
    eval_step,
    eval_word,
    generator_step,
    maps_equal,
    sample_fraction,
    word_map,
)
from e6painleve.piclattice import E6_EDGES
from e6painleve.weylgroup import REFLECTION_SYMBOLS, SYMBOLS
from oracles import param_oracle


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
