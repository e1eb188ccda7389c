"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (zero tolerance); the timed criteria assert their
stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from e6painleve.birational import (
    Indeterminate,
    ParamVector,
    SurfacePoint,
    maps_equal,
    sample_fraction,
    word_map,
)
from e6painleve.decompose import decompose
from e6painleve.models import (
    CONJUGATOR_WORD,
    PHI_PIC_ACTION,
    PHI_WORD,
    PSI_PIC_ACTION,
    PSI_WORD,
    b_from_schlesinger_chart,
    b_from_schlesinger_matched,
    change_of_variables,
    phi_step,
    psi_step,
)
from e6painleve.periodmap import root_variable_evolution, root_variables
from e6painleve.piclattice import E6_EDGES, surface_root
from e6painleve.verify import sample_schlesinger
from e6painleve.weylgroup import (
    AUTOMORPHISM_SYMBOLS,
    PicMap,
    SYMBOLS,
    find_conjugator,
    generator_picmap,
    kac_vector,
    translation_delta_vector,
    translation_norm,
    word_to_picmap,
)

from oracles import ALPHA_PERMUTATIONS, param_oracle, qrt_oracle, schlesinger_oracle

IDENTITY = PicMap.identity()


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_lattice_coxeter_suite():
    start = time.perf_counter()
    ok = all(generator_picmap(s).is_cremona_isometry() for s in SYMBOLS)
    for i in range(7):
        for j in range(i + 1, 7):
            order = 3 if (i, j) in E6_EDGES else 2
            product = generator_picmap(f"w{i}") @ generator_picmap(f"w{j}")
            power = IDENTITY
            for _ in range(order):
                power = power @ product
            ok = ok and power == IDENTITY
    for s in SYMBOLS[:7]:
        ok = ok and word_to_picmap((s, s)) == IDENTITY
    for sigma in AUTOMORPHISM_SYMBOLS:
        s_map = generator_picmap(sigma)
        s_inv = s_map.inverse()
        for i in range(7):
            ok = ok and s_map @ generator_picmap(f"w{i}") @ s_inv == generator_picmap(
                f"w{ALPHA_PERMUTATIONS[sigma][i]}"
            )
    ok = ok and word_to_picmap(("m1", "w0", "m1")) == generator_picmap("w4")
    elapsed = time.perf_counter() - start
    _report(1, "lattice/coxeter suite", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_pic_action_reproduction():
    ok = (
        word_to_picmap(PHI_WORD) == PHI_PIC_ACTION
        and word_to_picmap(PSI_WORD) == PSI_PIC_ACTION
    )
    _report(2, "Pic-action reproduction", ok)


def test_criterion_3_decomposition():
    start = time.perf_counter()
    ok = word_to_picmap(decompose(PHI_PIC_ACTION)) == PHI_PIC_ACTION
    ok = ok and word_to_picmap(decompose(PSI_PIC_ACTION)) == PSI_PIC_ACTION
    rng = random.Random(2024)
    for _ in range(200):
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 12)))
        m = word_to_picmap(word)
        ok = ok and word_to_picmap(decompose(m)) == m
    elapsed = time.perf_counter() - start
    _report(3, "decomposition", ok and elapsed < 5.0, f"200 words, {elapsed:.2f}s")


def test_criterion_4_translation_analysis():
    ok = translation_delta_vector(PHI_PIC_ACTION) == (0, 0, 0, 1, 0, -1, 0)
    ok = ok and translation_delta_vector(PSI_PIC_ACTION) == (0, 0, 0, -1, 1, 1, -1)
    ok = ok and translation_norm(PHI_PIC_ACTION) == Fraction(4, 3)
    ok = ok and translation_norm(PSI_PIC_ACTION) == Fraction(4, 3)
    ok = ok and all(
        PHI_PIC_ACTION(surface_root(j)) == surface_root((j + 1) % 3) for j in range(3)
    )
    _report(4, "translation analysis", ok)


def test_criterion_5_conjugacy():
    start = time.perf_counter()
    src = kac_vector(PSI_PIC_ACTION)
    dst = kac_vector(PHI_PIC_ACTION)
    word = find_conjugator(src, dst, max_len=2)
    ok = word is not None and set(word) <= {"w3", "w5"}
    conjugated = CONJUGATOR_WORD + PSI_WORD + tuple(reversed(CONJUGATOR_WORD))
    comparison = maps_equal(phi_step, word_map(conjugated), trials=25, seed=101)
    ok = ok and comparison.equal and comparison.samples >= 25
    elapsed = time.perf_counter() - start
    _report(5, "conjugacy", ok and elapsed < 10.0, f"{elapsed:.2f}s, word={word}")


def test_criterion_6_change_of_variables_transport():
    rng = random.Random(2025)
    ok = True
    checked = 0
    while checked < 25:
        t = sample_schlesinger(rng)
        x, y = sample_fraction(rng, 100), sample_fraction(rng, 100)
        try:
            t_new, x_new, y_new = psi_step(t, x, y)
            f_bar, g_bar = change_of_variables(t_new, x_new, y_new)
            f, g = change_of_variables(t, x, y)
            b_new, p_new = phi_step(
                b_from_schlesinger_matched(t), SurfacePoint.affine(f, g)
            )
        except Indeterminate:
            continue
        if not p_new.is_finite:
            continue
        checked += 1
        ok = ok and p_new.f.as_fraction() == f_bar and p_new.g.as_fraction() == g_bar
        ok = ok and b_new == b_from_schlesinger_matched(t_new)
        b, shifted = b_from_schlesinger_matched(t), b_from_schlesinger_matched(t_new)
        ok = ok and tuple(s - v for s, v in zip(shifted.b, b.b)) == (0, 0, 0, 0, -1, -1, 1, 1)
        ok = ok and b_from_schlesinger_chart(t).chi_delta() == -1
    _report(6, "change-of-variables transport", ok, f"{checked} samples")


def test_criterion_7_period_consistency():
    rng = random.Random(2026)
    ok = True
    for _ in range(10):
        b = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
        a = root_variables(b)
        for s in SYMBOLS:
            new_b = ParamVector(param_oracle(s, b.b))
            ok = ok and root_variables(new_b) == root_variable_evolution((s,), a)
    for _ in range(5):
        a = root_variables(ParamVector(tuple(sample_fraction(rng) for _ in range(8))))
        d = a.chi_delta()
        evolved = root_variable_evolution(PHI_WORD, a)
        ok = ok and evolved.a == (
            a.a[0], a.a[1], a.a[2], a.a[3] - d, a.a[4], a.a[5] + d, a.a[6],
        )
    _report(7, "period consistency", ok)


def test_criterion_8_double_entry_transcriptions():
    rng = random.Random(2027)
    ok = True
    checked = 0
    while checked < 100:
        b = ParamVector(tuple(sample_fraction(rng, 100) for _ in range(8)))
        f, g = sample_fraction(rng, 100), sample_fraction(rng, 100)
        try:
            expected_b, expected_f, expected_g = qrt_oracle(b.b, f, g)
        except ZeroDivisionError:
            continue
        new_b, new_p = phi_step(b, SurfacePoint.affine(f, g))
        ok = (
            ok
            and new_b.b == expected_b
            and new_p.f.as_fraction() == expected_f
            and new_p.g.as_fraction() == expected_g
        )
        checked += 1
    phi_samples = checked

    checked = 0
    while checked < 100:
        t = sample_schlesinger(rng)
        x, y = sample_fraction(rng, 100), sample_fraction(rng, 100)
        theta = (t.theta01, t.theta02, t.theta11, t.theta12, t.kappa1, t.kappa2, t.kappa3)
        try:
            expected_t, expected_x, expected_y = schlesinger_oracle(theta, x, y)
        except ZeroDivisionError:
            continue
        try:
            new_t, new_x, new_y = psi_step(t, x, y)
        except Indeterminate:
            continue
        new_theta = (
            new_t.theta01, new_t.theta02, new_t.theta11, new_t.theta12,
            new_t.kappa1, new_t.kappa2, new_t.kappa3,
        )
        ok = ok and new_theta == expected_t and (new_x, new_y) == (expected_x, expected_y)
        checked += 1
    _report(
        8, "double-entry transcription gate", ok,
        f"{phi_samples}+{checked} samples",
    )
