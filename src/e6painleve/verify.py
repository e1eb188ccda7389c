"""Invariant suites behind the `verify` command.

Each suite returns a list of named check results; a suite passes when every
check does.  Matrix-level checks are exact identities; pointwise checks use
seeded generic rational samples and exact arithmetic throughout.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .birational import (
    Indeterminate,
    MapComparison,
    ParamVector,
    SurfacePoint,
    check_rejection_rate,
    eval_word,
    generator_step,
    maps_equal,
    sample_fraction,
    word_map,
)
from .models import (
    CheckResult,
    PHI_PIC_ACTION,
    PHI_WORD,
    PSI_PIC_ACTION,
    PSI_WORD,
    b_from_schlesinger_chart,
    phi_step,
    psi_step,
    sample_schlesinger,
    verify_equivalence,
)
from .periodmap import RootVariables, root_variable_evolution, root_variables
from .piclattice import E6_EDGES, surface_root
from .weylgroup import (
    ALPHA_PERMUTATIONS,
    AUTOMORPHISM_SYMBOLS,
    PicMap,
    REFLECTION_SYMBOLS,
    SYMBOL_INVERSE,
    SYMBOLS,
    find_conjugator,
    generator_picmap,
    kac_vector,
    surface_root_permutation,
    translation_delta_vector,
    translation_norm,
    word_to_picmap,
)

SUITES = ("coxeter", "birational", "period", "equivalence", "all")


def _check(name: str, passed: bool, samples: int = 0, note: str = "") -> CheckResult:
    return CheckResult(name, passed, samples, note=note)


def _compared(name: str, result: MapComparison) -> CheckResult:
    return CheckResult(name, result.equal, result.samples, result.rejected)


def coxeter_suite() -> list[CheckResult]:
    """Exact matrix identities of the generator representation."""
    identity = PicMap.identity()
    checks = []

    checks.append(
        _check(
            "generators_are_cremona_isometries",
            all(generator_picmap(s).is_cremona_isometry() for s in SYMBOLS),
        )
    )
    checks.append(
        _check(
            "reflections_are_involutions",
            all(word_to_picmap((s, s)) == identity for s in REFLECTION_SYMBOLS),
        )
    )

    coxeter_ok = all(
        word_to_picmap((f"w{i}", f"w{j}") * (3 if {(i, j), (j, i)} & E6_EDGES else 2)) == identity
        for i in range(7)
        for j in range(i + 1, 7)
    )
    checks.append(_check("coxeter_relations", coxeter_ok))

    dihedral_ok = (
        word_to_picmap(("r", "r", "r")) == identity
        and word_to_picmap(("r", "r")) == generator_picmap("r2")
        and all(word_to_picmap((s, s)) == identity for s in ("m0", "m1", "m2"))
        and word_to_picmap(("m0", "r")) == word_to_picmap(("r2", "m0"))
    )
    checks.append(_check("dihedral_automorphism_relations", dihedral_ok))

    # With r r r = 1, r r = r2 and m_i m_i = 1, SYMBOL_INVERSE names each inverse.
    semidirect_ok = all(
        word_to_picmap((sigma, f"w{i}", SYMBOL_INVERSE[sigma]))
        == generator_picmap(f"w{ALPHA_PERMUTATIONS[sigma][i]}")
        for sigma in AUTOMORPHISM_SYMBOLS
        for i in range(7)
    )
    checks.append(_check("semidirect_relations", semidirect_ok))

    surface_ok = all(
        surface_root_permutation(generator_picmap(s)) == (0, 1, 2) for s in REFLECTION_SYMBOLS
    ) and all(
        surface_root_permutation(generator_picmap(s)) is not None for s in AUTOMORPHISM_SYMBOLS
    )
    checks.append(_check("surface_root_action", surface_ok))
    return checks


def birational_suite(trials: int = 25, seed: int = 0, bound: int = 10_000) -> list[CheckResult]:
    """Pointwise identities of the elementary maps at generic samples."""
    checks = []
    identity_map = lambda b, p: (b, p)

    for s in list(REFLECTION_SYMBOLS) + ["m0", "m1", "m2"]:
        result = maps_equal(word_map((s, s)), identity_map, trials=trials, seed=seed, bound=bound)
        checks.append(_compared(f"involution_{s}", result))
    result = maps_equal(word_map(("r", "r", "r")), identity_map, trials=trials, seed=seed, bound=bound)
    checks.append(_compared("r_cubed", result))
    result = maps_equal(word_map(("r", "r")), word_map(("r2",)), trials=trials, seed=seed, bound=bound)
    checks.append(_compared("r_squared", result))

    for i, j in sorted(E6_EDGES):
        braid = maps_equal(
            word_map((f"w{i}", f"w{j}", f"w{i}")),
            word_map((f"w{j}", f"w{i}", f"w{j}")),
            trials=trials,
            seed=seed,
            bound=bound,
        )
        checks.append(_compared(f"braid_w{i}_w{j}", braid))

    commute = maps_equal(
        word_map(("w3", "w5")), word_map(("w5", "w3")), trials=trials, seed=seed, bound=bound
    )
    checks.append(_compared("w3_w5_commute", commute))

    semidirect = maps_equal(
        word_map(("m1", "w0", "m1")), word_map(("w4",)), trials=trials, seed=seed, bound=bound
    )
    checks.append(_compared("m1_w0_m1_equals_w4", semidirect))

    rng = random.Random(f"gauge:{seed}")
    gauge_ok = True
    for _ in range(trials):
        b = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
        for s in SYMBOLS:
            new_b = generator_step(s).apply_params(b)
            gauge_ok = gauge_ok and new_b.b[3] == b.b[3] and new_b.chi_delta() == b.chi_delta()
    checks.append(_check("gauge_fixes_b4_and_chi_delta", gauge_ok, trials))
    return checks


def period_suite(seed: int = 0, samples: int = 10) -> list[CheckResult]:
    """Consistency of the period map with the parameter actions."""
    checks = []
    rng = random.Random(f"period:{seed}")

    consistency_ok = True
    chi_ok = True
    for _ in range(samples):
        b = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
        a = root_variables(b)
        for s in SYMBOLS:
            new_b = generator_step(s).apply_params(b)
            predicted = root_variable_evolution((s,), a)
            consistency_ok = consistency_ok and root_variables(new_b) == predicted
            chi_ok = chi_ok and predicted.chi_delta() == a.chi_delta()
    checks.append(_check("generator_consistency", consistency_ok, samples))
    checks.append(_check("chi_delta_invariance", chi_ok, samples))

    linear_ok = True
    for _ in range(samples):
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 6)))
        a1 = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        a2 = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        total = RootVariables(tuple(x + y for x, y in zip(a1.a, a2.a)))
        lhs = root_variable_evolution(word, total)
        rhs1 = root_variable_evolution(word, a1)
        rhs2 = root_variable_evolution(word, a2)
        linear_ok = linear_ok and lhs.a == tuple(x + y for x, y in zip(rhs1.a, rhs2.a))
    checks.append(_check("evolution_linearity", linear_ok, samples))

    evolution_ok = True
    for _ in range(samples):
        a = RootVariables(tuple(sample_fraction(rng) for _ in range(7)))
        d = a.chi_delta()
        evolved = root_variable_evolution(PHI_WORD, a)
        expected = (a.a[0], a.a[1], a.a[2], a.a[3] - d, a.a[4], a.a[5] + d, a.a[6])
        evolution_ok = evolution_ok and evolved.a == expected
    checks.append(_check("phi_word_root_evolution", evolution_ok, samples))
    return checks


def equivalence_suite(
    trials: int = 25, seed: int = 0, max_word_length: int = 12, bound: int = 10_000
) -> list[CheckResult]:
    """Translation analysis, conjugacy, and the full equivalence checks."""
    checks = []

    checks.append(
        _check(
            "pic_actions_match_words",
            word_to_picmap(PHI_WORD) == PHI_PIC_ACTION
            and word_to_picmap(PSI_WORD) == PSI_PIC_ACTION,
        )
    )
    checks.append(
        _check(
            "translation_vectors",
            translation_delta_vector(PHI_PIC_ACTION) == (0, 0, 0, 1, 0, -1, 0)
            and translation_delta_vector(PSI_PIC_ACTION) == (0, 0, 0, -1, 1, 1, -1),
        )
    )
    checks.append(
        _check(
            "translation_norms",
            translation_norm(PHI_PIC_ACTION) == Fraction(4, 3)
            and translation_norm(PSI_PIC_ACTION) == Fraction(4, 3),
        )
    )
    checks.append(
        _check(
            "phi_cycles_surface_roots",
            all(
                PHI_PIC_ACTION(surface_root(j)) == surface_root((j + 1) % 3)
                for j in range(3)
            ),
        )
    )

    src = kac_vector(PSI_PIC_ACTION)
    dst = kac_vector(PHI_PIC_ACTION)
    conjugator = find_conjugator(src, dst, max_len=max_word_length)
    checks.append(
        _check(
            "conjugator_found",
            conjugator is not None and set(conjugator) <= {"w3", "w5"},
            note="" if conjugator is None else " ".join(conjugator),
        )
    )

    phi_vs_word = maps_equal(phi_step, word_map(PHI_WORD), trials=trials, seed=seed, bound=bound)
    checks.append(_compared("phi_formula_equals_word", phi_vs_word))

    psi_ok = True
    rng = random.Random(f"psi-word:{seed}")
    accepted = 0
    rejected = 0
    while accepted < trials:
        check_rejection_rate(accepted, rejected, "psi/word samples")
        t = sample_schlesinger(rng)
        x, y = sample_fraction(rng, 100), sample_fraction(rng, 100)
        try:
            t_new, x_new, y_new = psi_step(t, x, y)
            word_b, word_p = eval_word(
                PSI_WORD, b_from_schlesinger_chart(t), SurfacePoint.affine(x, y)
            )
        except Indeterminate:
            rejected += 1
            continue
        if not word_p.is_finite:
            rejected += 1
            continue
        accepted += 1
        psi_ok = (
            psi_ok
            and word_p.f.as_fraction() == x_new
            and word_p.g.as_fraction() == y_new
            and word_b == b_from_schlesinger_chart(t_new)
        )
    checks.append(CheckResult("psi_formula_equals_word", psi_ok, accepted, rejected))

    report = verify_equivalence(trials=trials, seed=seed)
    checks.extend(report.checks)
    return checks


def run_suite(
    suite: str,
    trials: int = 25,
    seed: int = 0,
    max_word_length: int = 12,
    bound: int = 10_000,
) -> list[CheckResult]:
    if suite == "coxeter":
        return coxeter_suite()
    if suite == "birational":
        return birational_suite(trials=trials, seed=seed, bound=bound)
    if suite == "period":
        return period_suite(seed=seed, samples=trials)
    if suite == "equivalence":
        return equivalence_suite(
            trials=trials, seed=seed, max_word_length=max_word_length, bound=bound
        )
    if suite == "all":
        return (
            coxeter_suite()
            + birational_suite(trials=trials, seed=seed, bound=bound)
            + period_suite(seed=seed, samples=trials)
            + equivalence_suite(
                trials=trials, seed=seed, max_word_length=max_word_length, bound=bound
            )
        )
    raise ValueError(f"unknown suite {suite!r}")
