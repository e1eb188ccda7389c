"""Invariant suites behind the `verify` command.

Each suite returns a list of named check results; a suite passes when every
check does.  Matrix-level checks are exact identities.  The period checks
are linear identities, proved on fixed bases: they draw nothing, so
--trials, --seed and --bound do not change them.  The other pointwise
checks draw seeded generic rational samples, scale each draw once to
integers (by the lcm L of its denominators) and compare integers, which is
exact because every map they compare is homogeneous in that scaling: words
through eval_integers, phi through phi_integers, and psi's closed form and
the dictionaries with one = L.  The 20 relation checks,
phi_formula_equals_word and conjugation draw the same samples, from one
cached draw per run_suite call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, lru_cache, partial

from .birational import (
    ParamVector,
    _lowest_terms,
    _scaled_state_draw,
    eval_integers,
    generator_step,
    integer_maps_equal,
    sample_check,
    sample_fraction,
    words_equal,
)
from .models import (
    CheckResult,
    PHI_PIC_ACTION,
    PHI_WORD,
    PSI_PIC_ACTION,
    PSI_WORD,
    _chart_dictionary,
    _indices,
    _psi_closed_form,
    _shifted,
    phi_integers,
    sample_schlesinger,
    verify_equivalence,
)
from .periodmap import (
    RootVariables,
    delta_period,
    root_values,
    root_variable_evolution,
    scale_to_integers,
)
from .piclattice import E6_EDGES
from .weylgroup import (
    ALPHA_PERMUTATIONS,
    AUTOMORPHISM_SYMBOLS,
    PicMap,
    REFLECTION_SYMBOLS,
    SYMBOL_INVERSE,
    SYMBOLS,
    find_conjugator,
    fold_root_values,
    generator_picmap,
    invert_word,
    kac_vector,
    simple_root_coords,
    surface_root_permutation,
    translation_delta_vector,
    translation_norm,
    word_to_picmap,
)

SUITES = ("coxeter", "birational", "period", "equivalence", "all")


def coxeter_suite() -> list[CheckResult]:
    """Exact matrix identities of the generator representation."""
    identity = PicMap.identity()
    checks = []

    checks.append(
        CheckResult(
            "generators_are_cremona_isometries",
            all(generator_picmap(s).is_cremona_isometry() for s in SYMBOLS),
        )
    )
    checks.append(
        CheckResult(
            "reflections_are_involutions",
            all(word_to_picmap((s, s)) == identity for s in REFLECTION_SYMBOLS),
        )
    )

    coxeter_ok = all(
        word_to_picmap((f"w{i}", f"w{j}") * (3 if {(i, j), (j, i)} & E6_EDGES else 2)) == identity
        for i in range(7)
        for j in range(i + 1, 7)
    )
    checks.append(CheckResult("coxeter_relations", coxeter_ok))

    dihedral_ok = (
        word_to_picmap(("r", "r", "r")) == identity
        and word_to_picmap(("r", "r")) == generator_picmap("r2")
        and all(word_to_picmap((s, s)) == identity for s in ("m0", "m1", "m2"))
        and word_to_picmap(("m0", "r")) == word_to_picmap(("r2", "m0"))
    )
    checks.append(CheckResult("dihedral_automorphism_relations", dihedral_ok))

    # With r r r = 1, r r = r2 and m_i m_i = 1, SYMBOL_INVERSE names each inverse.
    semidirect_ok = all(
        word_to_picmap((sigma, f"w{i}", SYMBOL_INVERSE[sigma]))
        == generator_picmap(f"w{ALPHA_PERMUTATIONS[sigma][i]}")
        for sigma in AUTOMORPHISM_SYMBOLS
        for i in range(7)
    )
    checks.append(CheckResult("semidirect_relations", semidirect_ok))

    surface_ok = all(
        surface_root_permutation(generator_picmap(s)) == (0, 1, 2) for s in REFLECTION_SYMBOLS
    ) and all(
        surface_root_permutation(generator_picmap(s)) is not None for s in AUTOMORPHISM_SYMBOLS
    )
    checks.append(CheckResult("surface_root_action", surface_ok))
    return checks


#: The generator relations of birational_suite: (name, lhs word, rhs word).
RELATIONS = (
    tuple((f"involution_{s}", (s, s), ()) for s in REFLECTION_SYMBOLS + ("m0", "m1", "m2"))
    + (("r_cubed", ("r", "r", "r"), ()), ("r_squared", ("r", "r"), ("r2",)))
    + tuple(
        (f"braid_w{i}_w{j}", (f"w{i}", f"w{j}", f"w{i}"), (f"w{j}", f"w{i}", f"w{j}"))
        for i, j in sorted(E6_EDGES)
    )
    + (("w3_w5_commute", ("w3", "w5"), ("w5", "w3")), ("m1_w0_m1_equals_w4", ("m1", "w0", "m1"), ("w4",)))
)


def birational_suite(trials: int = 25, seed: int = 0, bound: int = 10_000, draw=None) -> list[CheckResult]:
    """Pointwise identities of the elementary maps at generic samples."""
    draw = draw or cache(_scaled_state_draw(seed, bound))  # the relations share their draws, each scaled once
    checks = [CheckResult.sampled(name, words_equal(lhs, rhs, trials, draw)) for name, lhs, rhs in RELATIONS]

    rng = random.Random(f"gauge:{seed}")

    def gauge_fixed(b: ParamVector) -> bool:
        # On L b: every generator fixes the fourth integer and the sum.
        _, ints = scale_to_integers(b.b)
        total = sum(ints)
        return all(
            new[3] == ints[3] and sum(new) == total
            for new in (generator_step(s).rows(ints) for s in SYMBOLS)
        )

    params = lambda _: ParamVector(tuple(sample_fraction(rng, bound) for _ in range(8)))
    gauge = sample_check(trials, params, gauge_fixed, "parameter samples")
    checks.append(CheckResult.sampled("gauge_fixes_b4_and_chi_delta", gauge, ("b",)))
    return checks


@lru_cache(maxsize=None)
def _lattice_root_evolution(word: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """Row i: the simple-root coordinates of w^-1(a_i), read off the lattice matrix."""
    return simple_root_coords(word_to_picmap(invert_word(word)))


def period_suite() -> list[CheckResult]:
    """Consistency of the period map with the parameter actions, proved on bases.

    Each check is linear (in b, in the root variables, or in the fold's
    matrix), so it holds if and only if it holds on a basis: it runs through
    sample_check on the vectors of a fixed basis in order and draws nothing.

    generator_consistency compares each generator's parameter action with
    the root variables predicted from its lattice matrix (the new a_i is the
    period of s^-1(a_i)), independently of root_variable_evolution, from
    which the parameter action is derived.  evolution_linearity makes the
    same prediction for PHI_WORD and PSI_WORD and compares it with the
    fold's matrix.  The root basis e_j/(j+2) has denominators, so
    phi_word_root_evolution exercises root_variable_evolution's scaling.
    """

    def consistent(b: ParamVector) -> bool:
        # The root variables of L b are integers, and so is the lattice's prediction.
        _, ints = scale_to_integers(b.b)
        a = root_values(ints)
        for s in SYMBOLS:
            predicted = [sum(c * x for c, x in zip(row, a)) for row in _lattice_root_evolution((s,))]
            if list(root_values(generator_step(s).rows(ints))) != predicted:
                return False
        return True

    def chi_delta_fixed(b: ParamVector) -> bool:
        a = root_values(scale_to_integers(b.b)[1])
        chi = delta_period(a)
        return all(delta_period(fold_root_values((s,), a)) == chi for s in SYMBOLS)

    def fold_matches_lattice(word: tuple[str, ...]) -> bool:
        # Column j of the fold's matrix is its image of the j-th unit vector.
        columns = [fold_root_values(word, [int(i == j) for i in range(7)]) for j in range(7)]
        return tuple(zip(*columns)) == _lattice_root_evolution(word)

    def phi_evolution(a: RootVariables) -> bool:
        # Through the public evolution: phi translates the root variables by chi(delta).
        d = a.chi_delta()
        expected = (a.a[0], a.a[1], a.a[2], a.a[3] - d, a.a[4], a.a[5] + d, a.a[6])
        return root_variable_evolution(PHI_WORD, a).a == expected

    params = [ParamVector(tuple(int(i == j) for i in range(8))) for j in range(8)]
    roots = [RootVariables(tuple(Fraction(int(i == j), j + 2) for i in range(7))) for j in range(7)]
    checks = [
        ("generator_consistency", params, consistent, ("b",)),
        ("chi_delta_invariance", params, chi_delta_fixed, ("b",)),
        ("evolution_linearity", (PHI_WORD, PSI_WORD), fold_matches_lattice, ("word",)),
        ("phi_word_root_evolution", roots, phi_evolution, ("a",)),
    ]
    return [
        CheckResult.sampled(name, sample_check(len(basis), lambda i: basis[i - 1], holds, "basis vectors"), fields)
        for name, basis, holds, fields in checks
    ]


def equivalence_suite(
    trials: int = 25, seed: int = 0, max_word_length: int = 12, bound: int = 10_000, draw=None
) -> list[CheckResult]:
    """Translation analysis, conjugacy, and the full equivalence checks (the sampled ones on integers)."""
    checks = []

    checks.append(
        CheckResult(
            "pic_actions_match_words",
            word_to_picmap(PHI_WORD) == PHI_PIC_ACTION
            and word_to_picmap(PSI_WORD) == PSI_PIC_ACTION,
        )
    )
    checks.append(
        CheckResult(
            "translation_vectors",
            translation_delta_vector(PHI_PIC_ACTION) == (0, 0, 0, 1, 0, -1, 0)
            and translation_delta_vector(PSI_PIC_ACTION) == (0, 0, 0, -1, 1, 1, -1),
        )
    )
    checks.append(
        CheckResult(
            "translation_norms",
            translation_norm(PHI_PIC_ACTION) == Fraction(4, 3)
            and translation_norm(PSI_PIC_ACTION) == Fraction(4, 3),
        )
    )
    checks.append(CheckResult("phi_cycles_surface_roots", surface_root_permutation(PHI_PIC_ACTION) == (1, 2, 0)))

    src = kac_vector(PSI_PIC_ACTION)
    dst = kac_vector(PHI_PIC_ACTION)
    conjugator = find_conjugator(src, dst, max_len=max_word_length)
    checks.append(
        CheckResult(
            "conjugator_found",
            conjugator is not None and set(conjugator) <= {"w3", "w5"},
            note="" if conjugator is None else " ".join(conjugator),
        )
    )

    draw = draw or cache(_scaled_state_draw(seed, bound))
    phi_vs_word = integer_maps_equal(phi_integers, partial(eval_integers, PHI_WORD), trials, draw)
    checks.append(CheckResult.sampled("phi_formula_equals_word", phi_vs_word))

    rng = random.Random(f"psi-word:{seed}")

    def schlesinger_sample(_index: int) -> tuple:
        return sample_schlesinger(rng), sample_fraction(rng, 100), sample_fraction(rng, 100)

    def psi_matches_word(sample: tuple) -> bool | None:
        # On L (theta, x, y): psi's pairs against the word's from the chart's L b.
        t, x, y = sample
        one, values = scale_to_integers((*_indices(t), x, y))
        x_new, y_new = _psi_closed_form(values, one, bool)
        chart, point = _chart_dictionary(values[:7], one), ((values[7], 1), (values[8], 1))
        word_b, word_x, word_y = eval_integers(PSI_WORD, chart, *point)
        if not (word_x[1] and word_y[1]):
            return None
        return word_b == _chart_dictionary(_shifted(values[:7], one), one) and all(
            _lowest_terms(*a) == _lowest_terms(*b) for a, b in ((word_x, x_new), (word_y, y_new))
        )

    psi_vs_word = sample_check(trials, schlesinger_sample, psi_matches_word, "psi/word samples")
    checks.append(CheckResult.sampled("psi_formula_equals_word", psi_vs_word, ("theta", "x", "y")))

    report = verify_equivalence(trials=trials, seed=seed, bound=bound, draw=draw)
    checks.extend(report.checks)
    return checks


def run_suite(
    suite: str,
    trials: int = 25,
    seed: int = 0,
    max_word_length: int = 12,
    bound: int = 10_000,
) -> list[CheckResult]:
    """The checks of one suite; "all" runs the four in SUITES order."""
    draw = cache(_scaled_state_draw(seed, bound))  # the relation, phi-word and conjugation checks' draws
    suites = {
        "coxeter": coxeter_suite,
        "birational": lambda: birational_suite(trials=trials, seed=seed, bound=bound, draw=draw),
        "period": period_suite,
        "equivalence": lambda: equivalence_suite(
            trials=trials, seed=seed, max_word_length=max_word_length, bound=bound, draw=draw
        ),
    }
    if suite == "all":
        return [check for run in suites.values() for check in run()]
    if suite not in suites:
        raise ValueError(f"unknown suite {suite!r}")
    return suites[suite]()
