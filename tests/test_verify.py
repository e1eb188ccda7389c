"""The verify suites: one sampling loop, first-failure reports, independent checks."""

import contextlib
import importlib.util
import pathlib
import random
import sys
from functools import partial

import pytest

from e6painleve import birational, models, periodmap, verify
from e6painleve.birational import ParamVector, TooManyDegenerateSamples, sample_check, sample_fraction
from e6painleve.verify import CheckResult, sample_schlesinger
import oracles
from oracles import (
    birational_checks_oracle,
    equivalence_checks_oracle,
    matched_dictionary_oracle,
    mutant_of,
    period_checks_oracle,
)


def test_every_sampled_check_runs_one_sample_check(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return sample_check(*args, **kwargs)

    for module in (birational, verify):
        monkeypatch.setattr(module, "sample_check", spy)
    checks = verify.run_suite("all", trials=2, seed=1)
    assert len(calls) == sum(1 for c in checks if c.samples) == 29


def test_a_perturbed_psi_word_check_reports_its_first_failing_sample(monkeypatch):
    # On L (theta, x, y) with one = L, x~ + 1 is the pair (x_num + L x_den, x_den).
    def perturbed(values, one, nonzero):
        (x_num, x_den), y_new = models._psi_closed_form(values, one, nonzero)
        return (x_num + one * x_den, x_den), y_new

    monkeypatch.setattr(verify, "_psi_closed_form", perturbed)
    checks = {c.name: c for c in verify.equivalence_suite(trials=5, seed=3)}
    check = checks["psi_formula_equals_word"]
    assert (check.passed, check.samples) == (False, 1)
    # Replay the check's stream up to its first accepted draw.
    rng = random.Random("psi-word:3")
    for _ in range(check.rejected + 1):
        t, x, y = sample_schlesinger(rng), sample_fraction(rng, 100), sample_fraction(rng, 100)
    assert check.counterexample == {"theta": t.to_json(), "x": str(x), "y": str(y)}
    # The transport check runs the same closed form, so the mutant fails it too.
    assert not checks["transported_dynamics"].passed
    psi_checks = ("psi_formula_equals_word", "transported_dynamics")
    assert all(c.passed for name, c in checks.items() if name not in psi_checks)


@contextlib.contextmanager
def library_bound(name, value):
    """value bound to name in every e6painleve module whose globals hold it.

    The parameter rows and the steps that compile them are cached, so both
    caches are cleared on entry and on exit: no row read or compiled under
    the mutant outlives it, and none read before reaches the mutant's run.
    """
    clear = (birational.param_rows.cache_clear, birational.generator_step.cache_clear)
    with pytest.MonkeyPatch.context() as patch:
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "e6painleve" and name in vars(module):
                patch.setattr(module, name, value)
        try:
            for cache_clear in clear:
                cache_clear()
            yield
        finally:
            for cache_clear in clear:
                cache_clear()


def test_a_perturbed_gauge_check_reports_its_first_failing_sample():
    original = birational.param_rows

    def moves_b4(symbol):
        rows = original(symbol)
        if symbol != "r":
            return rows
        return rows[:3] + (rows[3] + ((0, 1),),) + rows[4:]  # r's b4 gains b1

    with library_bound("param_rows", moves_b4):
        gauge = verify.birational_suite(trials=3, seed=2)[-1]
    assert gauge.name == "gauge_fixes_b4_and_chi_delta"
    assert (gauge.passed, gauge.samples, gauge.rejected) == (False, 1, 0)
    rng = random.Random("gauge:2")
    first = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
    assert gauge.counterexample == {"b": first.to_json()}


def test_a_compiled_rows_mutant_fails_the_gauge_and_generator_checks():
    # r's compiled rows, which words run, gain b1 in b4; param_rows stays right.
    birational.generator_step.cache_clear()
    try:
        step = birational.generator_step("r")
        rows = step.rows

        def mutant(b):
            new = rows(b)
            return new[:3] + (new[3] + b[0],) + new[4:]

        vars(step)["rows"] = mutant
        checks = {c.name: c for c in verify.birational_suite(trials=3, seed=2) + verify.period_suite()}
    finally:
        birational.generator_step.cache_clear()
    assert not checks["gauge_fixes_b4_and_chi_delta"].passed
    assert not checks["generator_consistency"].passed
    assert checks["chi_delta_invariance"].passed and checks["evolution_linearity"].passed


def test_a_perturbed_coordinate_formula_fails_its_involution(monkeypatch):
    # b7 -> b8 in w3's g: the relation checks evaluate the mutated form.
    f, g = birational._FORMULAS["w3"]
    monkeypatch.setitem(birational._FORMULAS, "w3", (f, g.replace("b7*g", "b8*g")))
    birational.generator_step.cache_clear()
    try:
        checks = {c.name: c for c in verify.birational_suite(trials=5, seed=1)}
    finally:
        birational.generator_step.cache_clear()
    assert not checks["involution_w3"].passed
    assert checks["involution_w5"].passed and checks["gauge_fixes_b4_and_chi_delta"].passed


def test_a_fold_that_moves_chi_delta_fails_the_period_checks():
    original = periodmap.fold_root_values

    def mutant(word, values):
        moved = original(word, values)
        if "w0" in word:
            moved[0] += values[2]  # a0 gains a2: chi(delta) moves by a2
        return moved

    # The parameter rows are derived from the fold, so they take the mutant too.
    with library_bound("fold_root_values", mutant):
        checks = {c.name: c for c in verify.period_suite()}
    assert not checks["chi_delta_invariance"].passed
    assert not checks["phi_word_root_evolution"].passed
    assert not checks["generator_consistency"].passed
    assert not checks["evolution_linearity"].passed  # linear, but not the lattice's matrix


def test_a_fold_that_applies_letters_in_the_wrong_order_fails_evolution_linearity():
    # Single letters fold as before, so the per-generator checks pass; the
    # fold's matrix of a whole word is the lattice's only in the right order.
    original = periodmap.fold_root_values

    def mutant(word, values):
        return original(tuple(reversed(tuple(word))), values)

    with library_bound("fold_root_values", mutant):
        checks = {c.name: c for c in verify.period_suite()}
    check = checks["evolution_linearity"]
    assert (check.passed, check.samples) == (False, 1)
    assert check.counterexample == {"word": list(models.PHI_WORD)}
    assert checks["generator_consistency"].passed and checks["chi_delta_invariance"].passed


def test_relation_checks_report_the_counterexample():
    comparison = birational.maps_equal(
        birational.word_map(("w3",)), birational.word_map(("w5",)), trials=5, seed=10
    )
    check = CheckResult.sampled("w3_is_w5", comparison)
    b, p = comparison.counterexample
    assert check.to_json()["counterexample"] == {"b": b.to_json(), "point": p.to_json()}


def test_words_equal_reports_the_drawn_sample():
    # On scaled draws, the same result as maps_equal, and the counterexample
    # is the drawn (b, p), not its integer form.
    draw = birational._scaled_state_draw(10, 10_000)
    words = [partial(birational.eval_integers, word) for word in (("w3",), ("w5",))]
    comparison = birational.integer_maps_equal(*words, 5, draw)
    assert comparison == birational.maps_equal(
        birational.word_map(("w3",)), birational.word_map(("w5",)), trials=5, seed=10
    )
    assert comparison.counterexample == draw(comparison.samples + comparison.rejected)[0]


def test_relation_draws_are_scaled_once_per_suite(monkeypatch):
    # Within a suite, and across the suites of "all": the 20 relations, the
    # phi-word check and the conjugation check share one draw per call.
    calls = []
    scale = birational.scale_to_integers
    monkeypatch.setattr(birational, "scale_to_integers", lambda values: calls.append(values) or scale(values))
    shared = {name for name, _, _ in verify.RELATIONS} | {"phi_formula_equals_word", "conjugation"}
    for run, count in (
        (lambda: verify.birational_suite(trials=10, seed=1), len(verify.RELATIONS)),
        (lambda: verify.run_suite("all", trials=10, seed=1), len(shared)),
    ):
        calls.clear()
        checks = [c for c in run() if c.name in shared]
        assert len(checks) == count
        assert len(calls) == max(c.samples + c.rejected for c in checks) >= 10


def test_generator_consistency_catches_a_wrong_root_fold():
    # A fold that ignores w1 gives w1 the identity parameter action.  The
    # parameter rows are derived from the fold, so comparing them with the
    # fold again would pass; the lattice matrices tell them apart.
    original = periodmap.fold_root_values

    def mutant(word, values):
        return original(tuple(s for s in word if s != "w1"), values)

    with library_bound("fold_root_values", mutant):
        checks = {c.name: c for c in verify.period_suite()}
    assert not checks["generator_consistency"].passed
    assert checks["chi_delta_invariance"].passed


def _reports(run):
    """The checks' JSON, or the message of a rejection cap that stopped the suite."""
    try:
        return [c.to_json() for c in run()]
    except TooManyDegenerateSamples as exc:
        return str(exc)


@pytest.mark.parametrize("bound", (2, 10_000))
def test_integer_checks_match_their_fraction_forms(bound):
    # Bound 2 forces rejections (base points) and outputs at infinity.
    rejected = 0
    for seed in range(1, 6):
        library = _reports(
            lambda: verify.birational_suite(trials=10, seed=seed, bound=bound)
            + verify.period_suite()
        )
        oracle = _reports(
            lambda: [
                CheckResult.sampled(name, comparison, fields)
                for name, comparison, fields in birational_checks_oracle(verify.RELATIONS, 10, seed, bound)
                + period_checks_oracle(verify._lattice_root_evolution)
            ]
        )
        assert library == oracle, seed
        rejected += sum(c["rejected"] for c in library)
    assert (rejected > 0) == (bound == 2)


def _equivalence_reports(seed, bound):
    """equivalence_suite's four sampled checks and their Fraction forms, as _reports gives them."""
    library = _reports(lambda: verify.equivalence_suite(trials=10, seed=seed, bound=bound)[-4:])
    oracle = _reports(lambda: [CheckResult.sampled(*check) for check in equivalence_checks_oracle(10, seed, bound)])
    assert library == oracle, seed
    return library


@pytest.mark.parametrize("bound", (2, 10_000))
def test_integer_equivalence_checks_match_their_fraction_forms(bound):
    # Bound 2 forces rejections of phi's and the conjugation's draws.
    rejected = sum(c["rejected"] for seed in range(1, 6) for c in _equivalence_reports(seed, bound))
    assert (rejected > 0) == (bound == 2)


def test_integer_psi_checks_match_their_fraction_forms_on_small_samples(monkeypatch):
    # Schlesinger samples with numerators and denominators up to 2 meet the
    # rejections the seeded ones (up to 100) almost never do: the word or phi
    # at a base point, and the change of variables undefined.
    small = lambda rng, bound: sample_fraction(rng, 2)
    for module in (verify, oracles):
        monkeypatch.setattr(module, "sample_fraction", small)
    psi_checks = ("psi_formula_equals_word", "transported_dynamics")
    reports = [c for seed in range(1, 6) for c in _equivalence_reports(seed, 10_000)]
    assert sum(c["rejected"] for c in reports if c["name"] in psi_checks) > 50


def test_a_perturbed_matched_dictionary_reports_the_fraction_forms_counterexample(monkeypatch):
    # b1 + 1 in the matched dictionary: on L theta with one = L, the first entry + one.
    perturbed = mutant_of(models._matched_dictionary, "(-k1 - t01 - t11,", "(-k1 - t01 - t11 + one,")
    monkeypatch.setattr(verify, "_matched_dictionary", perturbed)

    def perturbed_oracle(t):
        b = matched_dictionary_oracle(t)
        return ParamVector((b.b[0] + 1,) + b.b[1:])

    for seed in range(1, 6):
        report = verify.verify_equivalence(trials=10, seed=seed)
        oracle = equivalence_checks_oracle(10, seed, 10_000, matched_dictionary=perturbed_oracle)
        expected = [CheckResult.sampled(*check).to_json() for check in oracle[2:]]
        assert [c.to_json() for c in report.checks] == expected, seed
        transported = report.checks[1]
        assert (transported.passed, transported.samples) == (False, 1)
        assert set(transported.counterexample) == {"theta", "x", "y"}


def test_a_psi_ring_form_mutant_fails_the_psi_checks(monkeypatch):
    # One coefficient of x~'s denominator: (t11 + one) -> (t11 + 2 one).
    mutant = mutant_of(models._psi_closed_form, "An * (t11 + one)", "An * (t11 + 2 * one)")
    monkeypatch.setattr(verify, "_psi_closed_form", mutant)
    checks = {c.name: c for c in verify.equivalence_suite(trials=5, seed=1)}
    assert not checks["psi_formula_equals_word"].passed
    assert not checks["transported_dynamics"].passed
    assert checks["phi_formula_equals_word"].passed and checks["conjugation"].passed


def test_a_phi_kernel_mutant_fails_the_phi_checks(monkeypatch):
    # phi_integers, and so both phi checks, run the one kernel.
    monkeypatch.setattr(models, "_phi_kernel", mutant_of(models._phi_kernel, "b5 + d", "b5 - d"))
    checks = {c.name: c for c in verify.equivalence_suite(trials=5, seed=1)}
    assert not checks["phi_formula_equals_word"].passed
    assert not checks["conjugation"].passed
    assert checks["psi_formula_equals_word"].passed


def test_every_tracer_target_resolves():
    # The benchmark's tracer reads each (module, function) of its TARGETS with a bare getattr.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, function_name, *_ in spans.TARGETS:
        module = importlib.import_module(f"e6painleve.{module_name}")
        assert callable(getattr(module, function_name, None)), (module_name, function_name)
