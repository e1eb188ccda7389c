"""Root variables, the inverse parameterization, and induced evolution."""

import random
from fractions import Fraction

from e6painleve.birational import ParamVector, sample_fraction
from e6painleve.models import PHI_WORD
from e6painleve.periodmap import (
    RootVariables,
    params_from_root_variables,
    root_variable_evolution,
    root_variables,
)
from e6painleve.piclattice import DELTA_WEIGHTS, symmetry_root, to_alpha_coords
from e6painleve.weylgroup import SYMBOLS, invert_word, word_to_picmap
from oracles import param_oracle


def test_root_variables_table():
    a = root_variables(ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8))
    assert a.a == (1, 1, 1, 8, 1, 6, 1)
    assert a.chi_delta() == 36
    assert root_variables(ParamVector.of(0, 0, 0, 0, 0, 0, 0, 0)).a == (0,) * 7


def test_params_from_root_variables_roundtrip():
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    a = root_variables(b)
    assert params_from_root_variables(a, 4) == b
    zero = params_from_root_variables(RootVariables.of(0, 0, 0, 0, 0, 0, 0), 0)
    assert zero == ParamVector.of(0, 0, 0, 0, 0, 0, 0, 0)


def test_params_from_root_variables_is_right_inverse():
    rng = random.Random(3)
    for _ in range(10):
        a = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        b4 = sample_fraction(rng)
        b = params_from_root_variables(a, b4)
        assert root_variables(b) == a
        assert b.b[3] == b4


def test_delta_weighted_variables_normalize_parameter_sum():
    scale = Fraction(1, sum(w * w for w in DELTA_WEIGHTS))
    a = RootVariables(tuple(scale * w for w in DELTA_WEIGHTS))
    assert a.chi_delta() == 1
    b = params_from_root_variables(a, 0)
    assert b.chi_delta() == 1


def test_single_reflection_evolution():
    rng = random.Random(4)
    for _ in range(5):
        a = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        evolved = root_variable_evolution(("w3",), a)
        a0, a1, a2, a3, a4, a5, a6 = a.a
        assert evolved.a == (a0, a1, a2 + a3, -a3, a3 + a4, a5, a6)


def test_phi_word_evolution():
    rng = random.Random(5)
    for _ in range(5):
        a = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        d = a.chi_delta()
        evolved = root_variable_evolution(PHI_WORD, a)
        assert evolved.a == (a.a[0], a.a[1], a.a[2], a.a[3] - d, a.a[4], a.a[5] + d, a.a[6])


def test_empty_word_evolution():
    a = RootVariables.of(1, 2, 3, 4, 5, 6, 7)
    assert root_variable_evolution((), a) == a


def test_generator_consistency_with_parameter_maps():
    rng = random.Random(6)
    for _ in range(10):
        b = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
        a = root_variables(b)
        for s in SYMBOLS:
            new_b = ParamVector(param_oracle(s, b.b))
            assert root_variables(new_b) == root_variable_evolution((s,), a), s


def test_chi_delta_invariant_under_words():
    rng = random.Random(7)
    for _ in range(10):
        a = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 8)))
        assert root_variable_evolution(word, a).chi_delta() == a.chi_delta()


def test_evolution_linearity():
    rng = random.Random(8)
    for _ in range(10):
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 8)))
        a1 = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        a2 = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        total = RootVariables(tuple(x + y for x, y in zip(a1.a, a2.a)))
        lhs = root_variable_evolution(word, total)
        r1 = root_variable_evolution(word, a1)
        r2 = root_variable_evolution(word, a2)
        assert lhs.a == tuple(x + y for x, y in zip(r1.a, r2.a))


def test_evolution_matches_lattice_action():
    # Lattice-side reference: the new a_i is the period sum_j x_j a_j of
    # the image w^-1(a_i), with x its symmetry-root coordinates.
    rng = random.Random(47)
    values = [Fraction(0), Fraction(-7, 3), Fraction(5, 12), Fraction(-1), Fraction(9, 8), Fraction(13)]
    cases = [RootVariables(tuple(rng.choice(values) for _ in range(7))) for _ in range(8)]
    cases += [RootVariables.of(0, 0, 0, 0, 0, 0, 0), RootVariables.of(-1, -2, -3, -4, -5, -6, -7)]
    for a in cases:
        for length in (0, 1, 2, 9, 40):
            word = tuple(rng.choices(SYMBOLS, k=length))
            inverse = word_to_picmap(invert_word(word))
            expected = []
            for i in range(7):
                x = to_alpha_coords(inverse(symmetry_root(i))).coeffs
                expected.append(sum((c * v for c, v in zip(x, a.a)), Fraction(0)))
            assert root_variable_evolution(word, a).a == tuple(expected)
