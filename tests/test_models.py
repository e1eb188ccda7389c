"""The two dynamics, the parameter dictionaries, and the equivalence checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from e6painleve import models, verify
from e6painleve.birational import (
    Indeterminate,
    ParamVector,
    ProjectiveCoord,
    SurfacePoint,
    TooManyDegenerateSamples,
    _lowest_terms,
    eval_word,
    maps_equal,
    sample_fraction,
    word_map,
)
from e6painleve.models import (
    CONJUGATOR_WORD,
    PHI_PIC_ACTION,
    PHI_WORD,
    PSI_PIC_ACTION,
    PSI_WORD,
    SchlesingerParams,
    b_from_schlesinger_chart,
    b_from_schlesinger_matched,
    change_of_variables,
    change_of_variables_inverse,
    orbit,
    phi_orbit,
    phi_step,
    psi_orbit,
    psi_step,
    verify_equivalence,
)
from e6painleve.periodmap import root_variable_evolution, root_variables, scale_to_integers
from e6painleve.verify import sample_schlesinger
from e6painleve.weylgroup import word_to_picmap

from oracles import (
    cancel_pieces_oracle,
    mutant_of,
    phi_projective_chain,
    psi_defined_oracle,
    psi_step_oracle,
    qrt_oracle,
    qrt_relations_hold,
    schlesinger_oracle,
)


def _random_params(rng, bound=60):
    return ParamVector(tuple(sample_fraction(rng, bound) for _ in range(8)))


def _theta_tuple(t: SchlesingerParams):
    return (t.theta01, t.theta02, t.theta11, t.theta12, t.kappa1, t.kappa2, t.kappa3)


def test_pic_actions_match_words():
    assert word_to_picmap(PHI_WORD) == PHI_PIC_ACTION
    assert word_to_picmap(PSI_WORD) == PSI_PIC_ACTION


def test_phi_step_against_oracle():
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        b = _random_params(rng)
        f, g = sample_fraction(rng, 60), sample_fraction(rng, 60)
        try:
            expected_b, expected_f, expected_g = qrt_oracle(b.b, f, g)
        except ZeroDivisionError:
            continue
        new_b, new_p = phi_step(b, SurfacePoint.affine(f, g))
        assert new_b.b == expected_b
        assert new_p.f.as_fraction() == expected_f
        assert new_p.g.as_fraction() == expected_g
        assert qrt_relations_hold(b.b, f, g, expected_f, expected_g)
        checked += 1


INF = ProjectiveCoord.infinity()
FIN = ProjectiveCoord.finite


def _phi_kernel(b, f, g):
    """phi_step on raw coordinates; None where it raises Indeterminate."""
    try:
        _, p = phi_step(ParamVector(b), SurfacePoint(f, g))
    except Indeterminate as exc:
        assert exc.symbol == "phi"
        return None
    return p.f, p.g


def _phi_reference(b, f, g):
    """The projective chain; None where it raises Indeterminate."""
    try:
        return phi_projective_chain(b, f, g)
    except Indeterminate:
        return None


def test_phi_kernel_matches_references_at_finite_points():
    rng = random.Random(24)
    checked = 0
    while checked < 60:
        # Denominators up to 7 and both signs, so the parameter lcm is not 1.
        b = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(8))
        f, g = sample_fraction(rng, 60), sample_fraction(rng, 60)
        try:
            expected_b, expected_f, expected_g = qrt_oracle(b, f, g)
        except ZeroDivisionError:
            continue
        new_b, new_p = phi_step(ParamVector(b), SurfacePoint.affine(f, g))
        assert new_b.b == expected_b
        assert (new_p.f, new_p.g) == (FIN(expected_f), FIN(expected_g))
        assert (new_p.f, new_p.g) == _phi_reference(b, FIN(f), FIN(g))
        checked += 1


def test_phi_kernel_agrees_with_projective_chain_on_special_lines():
    # Coordinates on the lines at infinity, on the parameter lines, on
    # f + g = 0, and points whose intermediate f~ is infinite, zero of a
    # factor, or -g: wherever the chain returns a value the kernel returns
    # the same one, and it never raises where the chain does not.
    rng = random.Random(25)
    agreed = kernel_only = both_raise = at_infinity = 0
    for _ in range(1500):
        b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8))
        d = sum(b)
        g = rng.choice(
            [INF, FIN(-rng.choice(b[:4])), FIN(rng.choice(b[4:6]))]
            + [FIN(sample_fraction(rng, 9))] * 3
        )
        kind = rng.randrange(4)
        gv = g.as_fraction() if g.is_finite else None
        if kind == 0:
            f = INF
        elif kind == 1 and g.is_finite:
            f = FIN(-gv)
        elif kind == 2 and g.is_finite:
            # choose f so that the intermediate f~ lands on a special value
            target = rng.choice([b[0], b[1], b[2], b[3], -(b[6] - d), -(b[7] - d), -gv])
            try:
                rhs = (
                    (gv + b[0]) * (gv + b[1]) * (gv + b[2]) * (gv + b[3])
                    / ((gv - b[4]) * (gv - b[5]))
                )
                f = FIN(rhs / (target + gv) - gv)
            except ZeroDivisionError:
                f = INF
        else:
            f = FIN(sample_fraction(rng, 9))
        expected = _phi_reference(b, f, g)
        got = _phi_kernel(b, f, g)
        if expected is not None:
            assert got == expected, (b, f, g)
            agreed += 1
            at_infinity += not (f.is_finite and g.is_finite and all(c.is_finite for c in got))
        elif got is not None:
            kernel_only += 1
        else:
            both_raise += 1
    assert min(agreed, kernel_only, both_raise) >= 100
    assert at_infinity >= 100


def test_phi_kernel_is_exact_where_the_chain_raised():
    b = tuple(map(Fraction, range(1, 9)))
    b_frac = tuple(map(Fraction, (-6, 3, -1, 1, "-2/3", "1/5", "1/2", "3/2")))
    cases = [
        # on g = infinity, f~ = b1 + ... + b6 - f
        (b, FIN(Fraction(2)), INF, (FIN(Fraction(19)), FIN(Fraction(-19)))),
        # a generic point of f + g = 0 (its f~ is infinite)
        (b_frac, FIN(Fraction(1, 3)), FIN(Fraction(-1, 3)), (INF, FIN(Fraction(-8, 5)))),
    ]
    for params, f, g, expected in cases:
        assert _phi_reference(params, f, g) is None
        assert _phi_kernel(params, f, g) == expected
    # on f = infinity, f~ = -g; the chain reaches the same value here
    expected = (FIN(Fraction(-3)), INF)
    assert _phi_kernel(b, INF, FIN(Fraction(3))) == expected
    assert _phi_reference(b, INF, FIN(Fraction(3))) == expected


def test_phi_step_does_no_projective_arithmetic(monkeypatch):
    # ProjectiveCoord has no arithmetic operators (test_birational).  phi_step
    # reads each coordinate as an integer pair and reduces each new one in
    # exactly one _lowest_terms call, at finite points and at infinity.
    calls = []

    def counting(*args):
        calls.append(args)
        return _lowest_terms(*args)

    monkeypatch.setattr(models, "_lowest_terms", counting)
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    for p in (SurfacePoint.affine(2, 3), SurfacePoint(FIN(Fraction(2)), INF), SurfacePoint(INF, FIN(Fraction(3)))):
        calls.clear()
        phi_step(b, p)
        assert len(calls) == 2, p
    calls.clear()
    phi_orbit(b, SurfacePoint.affine(2, 3), 6)
    assert len(calls) == 12


def test_phi_integers_and_phi_orbit_build_no_coordinate_objects_on_the_way(monkeypatch):
    # phi_integers (verify's phi) stays on integer pairs: it builds no
    # ProjectiveCoord and no Fraction.  phi_orbit wraps the kernel's pairs
    # once, two coordinates per step, and builds no Fraction besides the
    # eight parameters of each state.
    built = {"coord": 0, "fraction": 0}
    wrap, reduce, new_fraction = models._coord, ProjectiveCoord.__post_init__, Fraction.__new__

    def counting_wrap(num, den):
        built["coord"] += 1
        return wrap(num, den)

    def counting_reduce(coord):
        built["coord"] += 1
        reduce(coord)

    def counting_fraction(cls, *args, **kwargs):
        built["fraction"] += 1
        return new_fraction(cls, *args, **kwargs)

    b = ParamVector.of(Fraction(1, 2), 2, 3, 4, 5, 6, 7, Fraction(8, 3))
    monkeypatch.setattr(models, "_coord", counting_wrap)
    monkeypatch.setattr(ProjectiveCoord, "__post_init__", counting_reduce)
    monkeypatch.setattr(Fraction, "__new__", counting_fraction)
    for f, g in (((34, 5), (23, 9)), ((1, 0), (6, 1)), ((12, 1), (1, 0))):
        models.phi_integers((3, 12, 18, 24, 30, 36, 42, 16), f, g)
    assert built == {"coord": 0, "fraction": 0}
    for p in (SurfacePoint.affine(2, 3), SurfacePoint(INF, FIN(3)), SurfacePoint(FIN(3), INF)):
        built.update(coord=0, fraction=0)
        phi_orbit(b, p, 6)
        assert built == {"coord": 12, "fraction": 8 * 6}, p


def test_phi_autonomous_when_parameter_sum_vanishes():
    b = ParamVector.of(1, 2, 3, 4, -1, -2, -3, -4)
    assert b.chi_delta() == 0
    new_b, _ = phi_step(b, SurfacePoint.affine(Fraction(7, 3), Fraction(5, 2)))
    assert new_b == b


def test_phi_formula_equals_generator_word():
    assert maps_equal(phi_step, word_map(PHI_WORD), trials=25, seed=14).equal


def test_psi_step_against_oracle():
    rng = random.Random(15)
    checked = 0
    while checked < 20:
        t = sample_schlesinger(rng)
        x, y = sample_fraction(rng, 60), sample_fraction(rng, 60)
        try:
            expected_t, expected_x, expected_y = schlesinger_oracle(_theta_tuple(t), x, y)
        except ZeroDivisionError:
            continue
        try:
            new_t, new_x, new_y = psi_step(t, x, y)
        except Indeterminate:
            continue
        assert _theta_tuple(new_t) == expected_t
        assert (new_x, new_y) == (expected_x, expected_y)
        checked += 1


def test_psi_preserves_fuchs_relation():
    t = SchlesingerParams(*(Fraction(k) for k in (2, -1, 3, -2, 1, 4, -7)))
    assert t.fuchs_sum() == 0
    new_t, _, _ = psi_step(t, Fraction(5, 3), Fraction(7, 9))
    assert new_t.fuchs_sum() == 0
    assert new_t.theta01 == t.theta01 - 1
    assert new_t.theta11 == t.theta11 + 1


def _outcome(step, *args):
    try:
        return step(*args)
    except Indeterminate as exc:
        assert exc.symbol == "psi"
        return None


def test_psi_step_raises_where_the_divide_form_does():
    # Small integers hit the denominators of the closed form often: the ring
    # form gives the divide form's values and raises on the same inputs, and
    # the screen agrees with the divide form's screen.
    rng = random.Random(26)
    degenerate = 0
    for _ in range(20_000):
        values = [Fraction(rng.randint(-2, 2)) for _ in range(8)]
        t = SchlesingerParams(*values[:6], -sum(values[:6]))
        x, y = values[6:]
        expected = _outcome(psi_step_oracle, t, x, y)
        assert _outcome(psi_step, t, x, y) == expected
        assert models._psi_defined((*_theta_tuple(t), x, y)) == (expected is not None)
        degenerate += expected is None
    assert 5_000 < degenerate < 15_000


def test_schlesinger_params_validate_fuchs():
    with pytest.raises(ValueError):
        SchlesingerParams(*(Fraction(1),) * 7)
    with pytest.raises(ValueError):
        SchlesingerParams(Fraction(1, 2), 1, "1/3", 0, 0, 0, -2)


def test_schlesinger_params_keep_fractions_and_convert_other_values():
    half = Fraction(1, 2)
    t = SchlesingerParams(half, 1, "1/3", half, 0, 0, Fraction(-7, 3))
    assert t.theta01 is half and t.theta12 is half
    assert [type(v) for v in _theta_tuple(t)] == [Fraction] * 7
    assert (t.theta02, t.theta11, t.kappa1) == (1, Fraction(1, 3), 0)


def test_psi_formula_equals_generator_word():
    rng = random.Random(16)
    checked = 0
    while checked < 20:
        t = sample_schlesinger(rng)
        x, y = sample_fraction(rng, 60), sample_fraction(rng, 60)
        try:
            new_t, new_x, new_y = psi_step(t, x, y)
            word_b, word_p = eval_word(
                PSI_WORD, b_from_schlesinger_chart(t), SurfacePoint.affine(x, y)
            )
        except Indeterminate:
            continue
        if not word_p.is_finite:
            continue
        assert word_p.f.as_fraction() == new_x
        assert word_p.g.as_fraction() == new_y
        assert word_b == b_from_schlesinger_chart(new_t)
        checked += 1


def test_chart_dictionary():
    rng = random.Random(17)
    for _ in range(10):
        t = sample_schlesinger(rng)
        b = b_from_schlesinger_chart(t)
        assert b.chi_delta() == -1
        assert b.b[3] == 0
    # kappa1 = -theta02 makes b1 vanish
    t = SchlesingerParams(
        Fraction(2), Fraction(3), Fraction(1), Fraction(-4), Fraction(-3), Fraction(5), Fraction(-4)
    )
    assert b_from_schlesinger_chart(t).b[0] == 0


def test_chart_root_variable_evolution():
    rng = random.Random(18)
    for _ in range(5):
        t = sample_schlesinger(rng)
        a = root_variables(b_from_schlesinger_chart(t))
        d = a.chi_delta()
        assert d == -1
        evolved = root_variable_evolution(PSI_WORD, a)
        assert evolved.a == (
            a.a[0], a.a[1], a.a[2], a.a[3] + d, a.a[4] - d, a.a[5] - d, a.a[6] + d,
        )


def test_matched_dictionary():
    rng = random.Random(19)
    for _ in range(10):
        t = sample_schlesinger(rng)
        b = b_from_schlesinger_matched(t)
        assert b.b[3] == 0
        # one Schlesinger step moves the b-parameters by the unit shifts
        shifted = b_from_schlesinger_matched(t.shifted())
        assert shifted.b[0] == b.b[0]
        assert shifted.b[1] == b.b[1]
        assert shifted.b[2] == b.b[2]
        assert shifted.b[3] == b.b[3]
        assert shifted.b[4] == b.b[4] - 1
        assert shifted.b[5] == b.b[5] - 1
        assert shifted.b[6] == b.b[6] + 1
        assert shifted.b[7] == b.b[7] + 1
        # the dictionary is the conjugator's parameter action on the first one
        conj_b, _ = eval_word(
            CONJUGATOR_WORD, b_from_schlesinger_chart(t), SurfacePoint.affine(0, 1)
        )
        assert conj_b == b


def test_change_of_variables_matches_conjugator_coordinates():
    rng = random.Random(20)
    checked = 0
    while checked < 25:
        t = sample_schlesinger(rng)
        x, y = sample_fraction(rng, 60), sample_fraction(rng, 60)
        try:
            f, g = change_of_variables(t, x, y)
            _, p = eval_word(
                CONJUGATOR_WORD, b_from_schlesinger_chart(t), SurfacePoint.affine(x, y)
            )
        except Indeterminate:
            continue
        if not p.is_finite:
            continue
        assert (p.f.as_fraction(), p.g.as_fraction()) == (f, g)
        checked += 1


def test_change_of_variables_round_trip():
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        t = sample_schlesinger(rng)
        x, y = sample_fraction(rng, 60), sample_fraction(rng, 60)
        try:
            f, g = change_of_variables(t, x, y)
            back = change_of_variables_inverse(t, f, g)
        except Indeterminate:
            continue
        assert back == (x, y)
        checked += 1


def test_barred_change_of_variables_is_shifted_parameters():
    # the (f~, g~) formulas are the plain formulas at the stepped indices
    t = SchlesingerParams(
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
        Fraction(2, 3), Fraction(3, 5), Fraction(-171, 70),
    )
    x, y = Fraction(17, 5), Fraction(23, 9)
    t_new, x_new, y_new = psi_step(t, x, y)
    f_bar, g_bar = change_of_variables(t_new, x_new, y_new)
    shifted = t.shifted()
    den_f = y_new + shifted.kappa1 + shifted.theta02
    f_direct = (
        x_new * (y_new - (t.theta11 + 1)) - (t.kappa1 + t.theta02 + t.theta11 + 1) * y_new
    ) / den_f
    den_g = x_new - shifted.kappa1 - shifted.theta02
    g_direct = (
        x_new * (y_new + t.kappa1 + t.theta01 - 1) + (t.theta01 - 1 - t.theta02) * y_new
    ) / den_g
    assert (f_bar, g_bar) == (f_direct, g_direct)


def test_verify_equivalence_passes():
    report = verify_equivalence(trials=10, seed=22)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["conjugation", "transported_dynamics"]
    assert all(c.samples == 10 for c in report.checks)


def test_verify_equivalence_zero_trials_is_flagged():
    # No check may pass on zero samples: both entry points refuse trials < 1.
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials"):
            verify_equivalence(trials=trials)
        with pytest.raises(ValueError, match="trials"):
            maps_equal(phi_step, phi_step, trials=trials)


def test_sampling_loops_share_the_rejection_cap(monkeypatch):
    # With psi undefined everywhere, the transport loop and the psi-word loop
    # of the equivalence suite both stop after 10 straight rejections.
    def undefined(values, one, nonzero):
        raise Indeterminate("forced")

    monkeypatch.setattr(verify, "_psi_closed_form", undefined)
    with pytest.raises(TooManyDegenerateSamples, match="rejected 10 of 10 Schlesinger samples"):
        verify_equivalence(trials=3, seed=1)
    with pytest.raises(TooManyDegenerateSamples, match="rejected 10 of 10 psi/word samples"):
        verify.equivalence_suite(trials=3, seed=1)


def test_verify_equivalence_detects_perturbed_dictionary(monkeypatch):
    # b1 + 1 in the matched dictionary: on L theta with one = L, the first entry + one.
    # The transport check runs in verify, on verify's binding of the dictionary.
    perturbed = mutant_of(models._matched_dictionary, "(-k1 - t01 - t11,", "(-k1 - t01 - t11 + one,")
    monkeypatch.setattr(verify, "_matched_dictionary", perturbed)
    report = verify_equivalence(trials=5, seed=23)
    transported = report.checks[1]
    assert not transported.passed
    assert transported.counterexample is not None


def test_models_keeps_only_the_dynamics():
    # The check types, samplers and sampling loops live in verify and birational;
    # models.verify_equivalence is verify's, reached through a wrapper.
    checks = {
        "CheckResult", "EquivalenceReport", "_sample_json", "sample_check", "integer_maps_equal",
        "MapComparison", "_scaled_state_draw", "sample_fraction", "sample_schlesinger", "random",
    }
    assert not checks & set(vars(models))
    assert verify_equivalence(trials=2, seed=3) == verify.verify_equivalence(trials=2, seed=3)


def test_orbit_lengths_and_invariants():
    trace = phi_orbit(
        ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8), SurfacePoint.affine(2, 3), 0
    )
    assert len(trace) == 1

    b0 = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    trace = phi_orbit(b0, SurfacePoint.affine(2, 3), 4)
    assert len(trace) == 5
    for entry in trace.entries:
        assert entry.params.chi_delta() == b0.chi_delta()


def test_psi_orbit_root_variable_drift():
    t = SchlesingerParams(
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
        Fraction(2, 3), Fraction(3, 5), Fraction(-171, 70),
    )
    trace = psi_orbit(t, Fraction(17, 5), Fraction(23, 9), 3)
    assert len(trace) == 4
    a0 = root_variables(b_from_schlesinger_chart(t)).a
    for entry in trace.entries:
        assert entry.params.fuchs_sum() == 0
        a_k = root_variables(b_from_schlesinger_chart(entry.params)).a
        assert a_k[3] == a0[3] - entry.step  # a3 drifts by d = -1 per step


def test_orbit_dispatch():
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    assert orbit("phi", (b, SurfacePoint.affine(2, 3)), 1).kind == "phi"
    t = SchlesingerParams(
        Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(5), Fraction(6), Fraction(-21)
    )
    assert orbit("psi", (t, Fraction(1, 2), Fraction(1, 3)), 1).kind == "psi"
    with pytest.raises(ValueError):
        orbit("sigma", (b,), 1)


def test_phi_orbit_partial_trace_on_indeterminate():
    b = ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8)
    # (2, -2) is a base point because g = -b2 (and f + g = 0): the very
    # first step is indeterminate
    with pytest.raises(Indeterminate) as info:
        phi_orbit(b, SurfacePoint.affine(2, -2), 3)
    assert len(info.value.partial_trace) == 1
    assert info.value.symbol == "phi"


README_THETA = SchlesingerParams(
    Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
    Fraction(2, 3), Fraction(3, 5), Fraction(-171, 70),
)


def _iterated_psi_step(t, x, y, steps):
    """States of psi_step applied steps times, and the error that stopped it."""
    states = [(t, Fraction(x), Fraction(y))]
    for _ in range(steps):
        try:
            states.append(psi_step(*states[-1]))
        except Indeterminate as exc:
            return states, exc
    return states, None


def _psi_orbit_states(t, x, y, steps):
    """States of psi_orbit (the partial trace where it raises), and the error."""
    try:
        trace, error = psi_orbit(t, x, y, steps), None
    except Indeterminate as exc:
        trace, error = exc.partial_trace, exc
    assert [e.step for e in trace.entries] == list(range(len(trace)))
    return [(e.params, *e.point) for e in trace.entries], error


def _assert_psi_orbit_is_iterated_psi_step(t, x, y, steps):
    states, error = _psi_orbit_states(t, x, y, steps)
    expected_states, expected_error = _iterated_psi_step(t, x, y, steps)
    assert states == expected_states
    if expected_error is None:
        assert error is None
    else:
        assert (str(error), error.symbol, error.step_index) == (
            str(expected_error), expected_error.symbol, expected_error.step_index
        )
    return states, error


_small_fraction = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_small_fraction, min_size=6, max_size=6), _small_fraction, _small_fraction, st.integers(0, 5))
def test_psi_orbit_equals_iterated_psi_step(indices, x, y, steps):
    # Small heights land on psi's special curves (x + y = 0, theta11 =
    # theta12, alpha = 0) and on the poles of the change of variables often.
    t = SchlesingerParams(*indices, -sum(indices))
    _assert_psi_orbit_is_iterated_psi_step(t, x, y, steps)


def _iterated_phi_step(b, p, steps):
    """States of phi_step applied steps times, and the error that stopped it."""
    states = [(b, p)]
    for _ in range(steps):
        try:
            states.append(phi_step(*states[-1]))
        except Indeterminate as exc:
            return states, exc
    return states, None


_small_coord = st.one_of(st.none(), _small_fraction).map(lambda x: INF if x is None else FIN(x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_small_fraction, min_size=8, max_size=8), _small_coord, _small_coord, st.integers(0, 8))
def test_phi_orbit_equals_iterated_phi_step(b, f, g, steps):
    # phi_orbit carries each step's cofactors into the next, phi_step finds
    # every piece afresh; small heights reach the lines at infinity and the
    # base points, where the carry is dropped.
    b, p = ParamVector(tuple(b)), SurfacePoint(f, g)
    expected, expected_error = _iterated_phi_step(b, p, steps)
    try:
        trace, error = phi_orbit(b, p, steps), None
    except Indeterminate as exc:
        trace, error = exc.partial_trace, exc
    assert [e.step for e in trace.entries] == list(range(len(trace)))
    assert [(e.params, SurfacePoint(*e.point)) for e in trace.entries] == expected
    if expected_error is None:
        assert error is None
    else:
        assert (str(error), error.symbol) == (str(expected_error), expected_error.symbol)


def _conjugated_step(t, x, y):
    f, g = change_of_variables(t, x, y)
    b, p = phi_step(b_from_schlesinger_matched(t), SurfacePoint.affine(f, g))
    return eval_word(CONJUGATOR_WORD, b, p)[1]


def test_psi_orbit_raises_where_psi_step_does():
    # On x + y = 0 and on theta11 = theta12 the closed form has a zero
    # denominator, while the conjugated path is defined: the orbit stops
    # after state 0, as iterated psi_step does.
    second = SchlesingerParams(
        Fraction(3, 2), Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(-5, 2)
    )
    cases = [
        (README_THETA, Fraction(2), Fraction(-2), SurfacePoint(INF, FIN(Fraction(97, 42)))),
        (second, Fraction(3, 2), Fraction(1), SurfacePoint.affine(4, Fraction(4, 3))),
    ]
    for t, x, y, conjugated in cases:
        assert _conjugated_step(t, x, y) == conjugated
        states, error = _assert_psi_orbit_is_iterated_psi_step(t, x, y, 3)
        assert states == [(t, x, y)]
        assert (str(error), error.symbol) == ("psi hit a base point", "psi")


def test_psi_orbit_steps_where_the_change_of_variables_is_undefined():
    t = SchlesingerParams(
        Fraction(-3, 2), Fraction(2), Fraction(3, 2), Fraction(2), Fraction(1), Fraction(1), Fraction(-6)
    )
    with pytest.raises(Indeterminate):
        change_of_variables(t, 3, 0)
    states, error = _assert_psi_orbit_is_iterated_psi_step(t, Fraction(3), Fraction(0), 3)
    assert error is None
    assert states[1][1:] == (Fraction(3), Fraction(-20, 3))


def _count_steps(monkeypatch):
    """Record each step of phi's kernel ("phi") and each psi_step ("psi")
    call psi_orbit makes."""
    calls = []

    def counted(name, step):
        def wrapper(*args):
            calls.append(name)
            return step(*args)
        return wrapper

    monkeypatch.setattr(models, "_phi_kernel", counted("phi", models._phi_kernel))
    monkeypatch.setattr(models, "psi_step", counted("psi", psi_step))
    return calls


def test_psi_orbit_runs_on_phi_kernel(monkeypatch):
    # From the README start the whole orbit stays in phi's chart: one
    # phi_step per step and no psi_step.
    expected, _ = _iterated_psi_step(README_THETA, Fraction(17, 5), Fraction(23, 9), 12)
    calls = _count_steps(monkeypatch)
    states, error = _psi_orbit_states(README_THETA, Fraction(17, 5), Fraction(23, 9), 12)
    assert error is None and states == expected
    assert calls == ["phi"] * 12


def test_psi_orbit_falls_back_and_reenters_the_chart(monkeypatch):
    # Step 1 maps phi's image to a base point of w5 o w3, and the change of
    # variables is undefined at state 1: both steps run psi_step, and steps
    # 3 to 5 run in phi's chart again.
    indices = (Fraction(1), Fraction(4, 3), Fraction(-3, 2), Fraction(-3), Fraction(-1), Fraction(1, 2))
    t = SchlesingerParams(*indices, -sum(indices))
    expected, _ = _iterated_psi_step(t, Fraction(-1), Fraction(-3), 5)
    calls = _count_steps(monkeypatch)
    states, error = _psi_orbit_states(t, Fraction(-1), Fraction(-3), 5)
    assert error is None and states == expected
    assert calls == ["phi", "psi", "psi", "phi", "phi", "phi"]


def test_psi_orbit_screen_is_conservative(monkeypatch):
    # x + y = 2^61 - 1 and x + y = (2^61 - 1)(2^89 - 1) are zero modulo
    # the screen prime but not over Q: psi_step is defined, and every step
    # runs it, so the states are still those of iterated psi_step.
    calls = _count_steps(monkeypatch)
    for x in (Fraction(2 + 2 ** 61 - 1), Fraction(2 + (2 ** 61 - 1) * (2 ** 89 - 1))):
        expected, expected_error = _iterated_psi_step(README_THETA, x, Fraction(-2), 3)
        calls.clear()
        states, error = _psi_orbit_states(README_THETA, x, Fraction(-2), 3)
        assert error is None and expected_error is None and states == expected
        assert calls == ["psi"] * 3


def test_psi_screen_agrees_with_the_divide_form_on_the_readme_orbit():
    trace = psi_orbit(README_THETA, Fraction(17, 5), Fraction(23, 9), 22)
    for entry in trace.entries:
        values = (*_theta_tuple(entry.params), *entry.point)
        assert models._psi_defined(values) == psi_defined_oracle(values)


def test_phi_orbit_cancels_the_confined_factors_piece_by_piece(monkeypatch):
    # From the third half-step on, each half-step is seeded with the
    # cofactors of the two before it, and the one gcd left to
    # _lowest_terms cancels at most 64 bits (the pair of one final gcd
    # shares about 46,000 bits at step 28 of the README phi orbit).
    seeded, final_bits = [], []
    solve = models._solve_qrt_relation

    def spy_solve(u, v, r, p, x_seeds=None, s_seeds=None):
        seeded.append(x_seeds is not None and s_seeds is not None)
        return solve(u, v, r, p, x_seeds, s_seeds)

    def spy_reduce(num, den):
        final_bits.append(math.gcd(num, den).bit_length())
        return _lowest_terms(num, den)

    monkeypatch.setattr(models, "_solve_qrt_relation", spy_solve)
    monkeypatch.setattr(models, "_lowest_terms", spy_reduce)
    chart = (
        b_from_schlesinger_matched(README_THETA),
        SurfacePoint.affine(*change_of_variables(README_THETA, Fraction(17, 5), Fraction(23, 9))),
    )
    for b, p, steps in ((ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8), SurfacePoint.affine(2, 3), 28), (*chart, 24)):
        seeded.clear()
        final_bits.clear()
        phi_orbit(b, p, steps)
        assert len(seeded) == len(final_bits) == 2 * steps
        assert seeded[:2] == [False, False] and all(seeded[2:])
        assert max(final_bits[2:]) <= 64


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.integers(2, 60))
def test_phi_kernel_at_a_multiple_of_the_scale_gives_the_same_states(seed, k):
    # An orbit keeps its start's L, which is no longer the lcm of b's
    # denominators once b has moved: three carried kernel steps at scale k L
    # give the states (or the base point) they give at L.
    rng = random.Random(seed)
    b = _random_params(rng)
    p = SurfacePoint.affine(sample_fraction(rng, 60), sample_fraction(rng, 60))
    scale, ints = scale_to_integers(b.b)
    runs = []
    for L, B in ((scale, ints), (k * scale, tuple(k * v for v in ints))):
        f, g, carry, states = p.f.pair(), p.g.pair(), None, []
        try:
            for _ in range(3):
                B, f, g, carry = models._phi_kernel(B, f, g, L, carry)
                states.append((tuple(Fraction(v, L) for v in B), f, g))
        except Indeterminate:
            states.append(None)
        runs.append(states)
    assert runs[0] == runs[1]


#: Pieces of _cancel_pieces: (core, missing, dropped, extra, cofactor, factor
#: sign, seed sign).  The factor's piece is core * missing * dropped; its seed
#: lacks missing and holds extra bits besides; n lacks dropped.
_piece = st.tuples(
    st.integers(1, 2 ** 70), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
    st.integers(1, 2 ** 70), st.booleans(), st.booleans(),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_piece, min_size=1, max_size=4), st.integers(1, 2 ** 40), st.booleans())
def test_cancel_pieces_equals_the_two_division_reference(pieces, k, seeded):
    # One long division per seeded piece finds what gcd(factor, seed) and
    # factor // gcd did, for negative seeds, seeds with excess bits, seeds
    # that miss bits, exact seeds (missing = extra = 1) and pieces n does
    # not hold (dropped > 1).
    factors, seeds, n = [], [], k
    for core, missing, dropped, extra, cofactor, negative_factor, negative_seed in pieces:
        factors.append((-1) ** negative_factor * core * missing * dropped * cofactor)
        seeds.append((-1) ** negative_seed * core * dropped * extra)
        n *= core * missing
    seeds = seeds if seeded else None
    gs, cofactors, rest = models._cancel_pieces(factors, n, seeds)
    assert (cofactors, rest) == cancel_pieces_oracle(factors, n, seeds)
    assert [g * c for g, c in zip(gs, cofactors)] == factors
    assert min(gs) >= 1 and math.prod(gs) * rest == n


#: Four README-height psi starts, with README_THETA: the README point and
#: three more of the same height.
README_PSI_STARTS = [
    (Fraction(17, 5), Fraction(23, 9)), (Fraction(17, 5), Fraction(11, 7)),
    (Fraction(17, 5), Fraction(19, 4)), (Fraction(17, 5), Fraction(13, 6)),
]


def test_psi_orbit_maps_states_back_from_the_pieces(monkeypatch):
    # Each state is w5 o w3 of phi's chart state, built from the pieces of
    # the half-step that reached it: the orbit runs no eval_word, equals
    # eval_word of the chart states, and from step 3 on the one gcd of each
    # coordinate cancels at most 128 bits (the generic w3 and w5 pairs share
    # 15,000 to 16,000 bits at step 22 of the README orbit).
    words, final_bits = [], []
    pieces = models._psi_from_pieces

    def spy_pieces(*args):
        pairs = pieces(*args)
        final_bits.append(max(math.gcd(*pair).bit_length() for pair in pairs))
        return pairs

    monkeypatch.setattr(models, "eval_word", lambda *args: words.append(args) or eval_word(*args))
    monkeypatch.setattr(models, "_psi_from_pieces", spy_pieces)
    for x, y in README_PSI_STARTS:
        final_bits.clear()
        states, error = _psi_orbit_states(README_THETA, x, y, 24)
        assert error is None and words == []
        assert len(final_bits) == 24 and max(final_bits[2:]) <= 128
        chart = phi_orbit(
            b_from_schlesinger_matched(README_THETA),
            SurfacePoint.affine(*change_of_variables(README_THETA, x, y)),
            24,
        )
        for (_, x_k, y_k), entry in zip(states[1:], chart.entries[1:]):
            _, point = eval_word(CONJUGATOR_WORD, entry.params, SurfacePoint(*entry.point))
            assert (x_k, y_k) == (point.f.as_fraction(), point.g.as_fraction())


def test_psi_orbit_runs_psi_step_off_the_generic_pieces(monkeypatch):
    # The second half-step of step 1 is not generic: the pieces give no
    # state, step 1 runs psi_step, and the orbit is that of iterated psi_step.
    calls, starts = [], []
    pieces, step = models._psi_from_pieces, models.psi_step

    def spy_pieces(b, scale, f, carry):
        pairs = pieces(b, scale, f, carry)
        calls.append((carry[1] is not None, pairs is not None))
        return pairs

    def spy_step(*state):
        starts.append(state)
        return step(*state)

    monkeypatch.setattr(models, "_psi_from_pieces", spy_pieces)
    monkeypatch.setattr(models, "psi_step", spy_step)
    t = SchlesingerParams(
        Fraction(1), Fraction(-1), Fraction(0), Fraction(4, 3), Fraction(0), Fraction(1, 2), Fraction(-11, 6)
    )
    states, _ = _assert_psi_orbit_is_iterated_psi_step(t, Fraction(2), Fraction(1), 2)
    assert len(states) == 3
    assert calls[0] == (False, False) and starts[0] == states[0]


def test_map_back_leaves_y_equal_to_b7_to_the_word():
    # A generic step to g~ = -b1 (built backwards from f~ = 7/3) gives
    # y = b~7, where w5 sends x to infinity: the pieces give no state.
    # psi is undefined there, so psi_orbit's screen sends this start to
    # psi_step, which raises.
    x, y = Fraction(2472883, 2100675), Fraction(-347229092, 299237523)
    b = b_from_schlesinger_matched(README_THETA)
    scale, ints = scale_to_integers(b.b)
    f, g = (FIN(v).pair() for v in change_of_variables(README_THETA, x, y))
    new_b, f, g, carry = models._phi_kernel(ints, f, g, scale)
    assert (f, g) == (FIN(Fraction(7, 3)).pair(), FIN(-b.b[0]).pair()) and None not in carry
    assert models._psi_from_pieces(new_b, scale, f, carry) is None
    params = ParamVector(tuple(Fraction(v, scale) for v in new_b))
    assert not eval_word(CONJUGATOR_WORD, params, SurfacePoint(ProjectiveCoord(*f), ProjectiveCoord(*g)))[1].f.is_finite
    states, error = _assert_psi_orbit_is_iterated_psi_step(README_THETA, x, y, 2)
    assert states == [(README_THETA, x, y)] and str(error) == "psi hit a base point"
