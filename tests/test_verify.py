"""The verify suites: one sampling loop, first-failure reports, independent checks."""

import random

from e6painleve import birational, models, periodmap, verify
from e6painleve.birational import BirationalStep, ParamVector, sample_check, sample_fraction
from e6painleve.models import psi_step, sample_schlesinger


def test_every_sampled_check_runs_one_sample_check(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return sample_check(*args, **kwargs)

    for module in (birational, models, verify):
        monkeypatch.setattr(module, "sample_check", spy)
    checks = verify.run_suite("all", trials=2, seed=1)
    assert len(calls) == sum(1 for c in checks if c.samples) == 29


def test_a_perturbed_psi_word_check_reports_its_first_failing_sample(monkeypatch):
    def perturbed(t, x, y):
        t_new, x_new, y_new = psi_step(t, x, y)
        return t_new, x_new + 1, y_new

    monkeypatch.setattr(verify, "psi_step", perturbed)
    checks = {c.name: c for c in verify.equivalence_suite(trials=5, seed=3)}
    check = checks["psi_formula_equals_word"]
    assert (check.passed, check.samples) == (False, 1)
    # Replay the check's stream up to its first accepted draw.
    rng = random.Random("psi-word:3")
    for _ in range(check.rejected + 1):
        t, x, y = sample_schlesinger(rng), sample_fraction(rng, 100), sample_fraction(rng, 100)
    assert check.counterexample == {"theta": t.to_json(), "x": str(x), "y": str(y)}
    assert all(c.passed for name, c in checks.items() if name != "psi_formula_equals_word")


def test_a_perturbed_gauge_check_reports_its_first_failing_sample(monkeypatch):
    original = BirationalStep.apply_params

    def moves_b4(self, b):
        new_b = original(self, b)
        if self.name != "r":
            return new_b
        return ParamVector(new_b.b[:3] + (new_b.b[3] + 1,) + new_b.b[4:])

    monkeypatch.setattr(BirationalStep, "apply_params", moves_b4)
    gauge = verify.birational_suite(trials=3, seed=2)[-1]
    assert gauge.name == "gauge_fixes_b4_and_chi_delta"
    assert (gauge.passed, gauge.samples, gauge.rejected) == (False, 1, 0)
    rng = random.Random("gauge:2")
    first = ParamVector(tuple(sample_fraction(rng) for _ in range(8)))
    assert gauge.counterexample == {"b": first.to_json()}


def test_relation_checks_report_the_counterexample():
    comparison = birational.maps_equal(
        birational.word_map(("w3",)), birational.word_map(("w5",)), trials=5, seed=10
    )
    check = models.CheckResult.sampled("w3_is_w5", comparison)
    b, p = comparison.counterexample
    assert check.to_json()["counterexample"] == {"b": b.to_json(), "point": p.to_json()}


def test_generator_consistency_catches_a_wrong_root_fold(monkeypatch):
    # A fold that ignores w1 gives w1 the identity parameter action.  The
    # parameter rows are derived from the fold, so comparing them with the
    # fold again would pass; the lattice matrices tell them apart.
    original = periodmap.root_variable_evolution

    def mutant(word, a):
        return original(tuple(s for s in word if s != "w1"), a)

    for module in (birational, periodmap, verify):
        monkeypatch.setattr(module, "root_variable_evolution", mutant)
    birational.param_rows.cache_clear()
    try:
        checks = {c.name: c for c in verify.period_suite(seed=1, samples=10)}
    finally:
        birational.param_rows.cache_clear()
    assert not checks["generator_consistency"].passed
    assert checks["chi_delta_invariance"].passed
