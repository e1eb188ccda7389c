"""Invariant suites behind the `verify` command, and the checks they run.

Each suite is one table of named rows, which one runner (_run) turns into
CheckResults; a suite passes when every check does.  The exact rows are
matrix-level identities.  The basis rows, the period checks, are linear
identities proved on fixed bases: they draw nothing, so --trials, --seed
and --bound do not change them.  The sampled rows draw seeded generic
rational samples as integer pairs (sample_integers), scaled once by the lcm
L of their denominators, and compare integers, which is exact because every
map they compare is homogeneous in that scaling: words through
eval_integers, phi through phi_integers, and psi's closed form and the
dictionaries with one = L.  A sample's Fractions (ParamVector and
SurfacePoint, or SchlesingerParams, x and y) are built only for a
counterexample.  The shared rows (the 20 relations, phi_formula_equals_word and
conjugation) draw the same samples, from one _scaled_state_draw per
run_suite call; each other sampled row draws its own seeded stream.
verify_equivalence runs the equivalence suite's last two rows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul

from .birational import (
    SAMPLE_BOUND,
    MapComparison,
    ParamVector,
    _fractions,
    _scaled_state_draw,
    eval_integers,
    generator_step,
    integer_maps_equal,
    sample_check,
    sample_integers,
)
from .models import (
    CONJUGATOR_WORD,
    PHI_PIC_ACTION,
    PHI_WORD,
    PSI_PIC_ACTION,
    PSI_WORD,
    SchlesingerParams,
    _change_of_variables,
    _chart_dictionary,
    _matched_dictionary,
    _psi_closed_form,
    _shifted,
    phi_integers,
)
from .periodmap import (
    RootVariables,
    delta_period,
    root_values,
    root_variable_evolution,
    scale_to_integers,
)
from .piclattice import E6_EDGES, _Value
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

#: Accepted draws per randomized check (--trials).
TRIALS = 25

#: Depth bound of the conjugator search (--max-word-length).
MAX_WORD_LENGTH = 12

#: Bound on the numerators and denominators of the Schlesinger samples
#: (theta, x, y); --bound, SAMPLE_BOUND by default, bounds every other draw.
SCHLESINGER_BOUND = 100


class CheckResult(_Value):
    """One named check: whether it passed, its accepted and rejected samples, a note and a counterexample dict."""

    _fields = ("name", "passed", "samples", "rejected", "note", "counterexample")
    _defaults = (0, 0, "", None)

    @classmethod
    def sampled(
        cls, name: str, comparison: MapComparison, fields: tuple[str, ...] = ("b", "point"), rebuild=None
    ) -> "CheckResult":
        """The result of a randomized check.

        fields name the parts of a sample, or the sample itself when there
        is one field; the first failing sample becomes the counterexample,
        built by rebuild from the draw where the check drew integers.
        """
        counterexample = None
        if comparison.counterexample is not None:
            sample = comparison.counterexample if rebuild is None else rebuild(comparison.counterexample)
            parts = sample if len(fields) > 1 else (sample,)
            counterexample = {field: _sample_json(v) for field, v in zip(fields, parts)}
        return cls(
            name, comparison.equal, comparison.samples, comparison.rejected,
            counterexample=counterexample,
        )

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "passed": self.passed,
            "samples": self.samples,
            "rejected": self.rejected,
        }
        if self.note:
            out["note"] = self.note
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _sample_json(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    return list(value) if isinstance(value, tuple) else str(value)


class EquivalenceReport(_Value):
    """The CheckResults of verify_equivalence."""

    _fields = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def _run(rows, trials: int = TRIALS, seed: int = 0, bound: int = SAMPLE_BOUND, draw=None) -> list[CheckResult]:
    """The CheckResult of each row of a table, in order.

    A row is (name, kind, ...), of one of four kinds: "exact", thunk, where
    thunk() is the verdict or (verdict, note); "shared", map_a, map_b, two
    maps on integers (L b; L f, L g) compared by integer_maps_equal on draw,
    by default one _scaled_state_draw(seed, bound) for this call; "stream",
    draw, holds, what, fields, rebuild, sample_check on the row's own seeded
    stream of integer draws, rebuild making a failing one the sample it
    stands for; "basis", basis, holds, fields, proved on the vectors of
    basis in order.
    """
    draw = draw or _scaled_state_draw(seed, bound)
    checks = []
    for name, kind, *row in rows:
        rebuild = None
        if kind == "exact":
            verdict = row[0]()
            passed, note = verdict if type(verdict) is tuple else (verdict, "")
            checks.append(CheckResult(name, passed, note=note))
            continue
        if kind == "shared":
            comparison, fields = integer_maps_equal(*row, trials, draw), ("b", "point")
        elif kind == "stream":
            sample, holds, what, fields, rebuild = row
            comparison = sample_check(trials, sample, holds, what)
        else:
            basis, holds, fields = row
            comparison = sample_check(len(basis), lambda i: basis[i - 1], holds, "basis vectors")
        checks.append(CheckResult.sampled(name, comparison, fields, rebuild))
    return checks


def coxeter_suite() -> list[CheckResult]:
    """Exact matrix identities of the generator representation."""
    identity = PicMap.identity()
    return _run((
        ("generators_are_cremona_isometries", "exact",
         lambda: all(generator_picmap(s).is_cremona_isometry() for s in SYMBOLS)),
        ("reflections_are_involutions", "exact",
         lambda: all(word_to_picmap((s, s)) == identity for s in REFLECTION_SYMBOLS)),
        ("coxeter_relations", "exact", lambda: all(
            word_to_picmap((f"w{i}", f"w{j}") * (3 if {(i, j), (j, i)} & E6_EDGES else 2)) == identity
            for i in range(7)
            for j in range(i + 1, 7)
        )),
        ("dihedral_automorphism_relations", "exact", lambda: (
            word_to_picmap(("r", "r", "r")) == identity
            and word_to_picmap(("r", "r")) == generator_picmap("r2")
            and all(word_to_picmap((s, s)) == identity for s in ("m0", "m1", "m2"))
            and word_to_picmap(("m0", "r")) == word_to_picmap(("r2", "m0"))
        )),
        # With r r r = 1, r r = r2 and m_i m_i = 1, SYMBOL_INVERSE names each inverse.
        ("semidirect_relations", "exact", lambda: all(
            word_to_picmap((sigma, f"w{i}", SYMBOL_INVERSE[sigma]))
            == generator_picmap(f"w{ALPHA_PERMUTATIONS[sigma][i]}")
            for sigma in AUTOMORPHISM_SYMBOLS
            for i in range(7)
        )),
        ("surface_root_action", "exact", lambda: all(
            surface_root_permutation(generator_picmap(s)) == (0, 1, 2) for s in REFLECTION_SYMBOLS
        ) and all(
            surface_root_permutation(generator_picmap(s)) is not None for s in AUTOMORPHISM_SYMBOLS
        )),
    ))


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


def _gauge_fixed(drawn: tuple) -> bool:
    # On L b: every generator fixes the fourth integer and the sum.
    ints = drawn[1]
    total = sum(ints)
    return all(new[3] == ints[3] and sum(new) == total for new in (generator_step(s).rows(ints) for s in SYMBOLS))


def birational_suite(trials: int = TRIALS, seed: int = 0, bound: int = SAMPLE_BOUND, draw=None) -> list[CheckResult]:
    """Pointwise identities of the elementary maps at generic samples."""
    rng = random.Random(f"gauge:{seed}")
    params = lambda _: sample_integers(rng, 8, bound)
    rebuild = lambda drawn: ParamVector(_fractions(drawn[2]))
    return _run(
        [(name, "shared", partial(eval_integers, lhs), partial(eval_integers, rhs)) for name, lhs, rhs in RELATIONS]
        + [("gauge_fixes_b4_and_chi_delta", "stream", params, _gauge_fixed, "parameter samples", ("b",), rebuild)],
        trials, seed, bound, draw,
    )


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
            predicted = [sum(map(mul, row, a)) for row in _lattice_root_evolution((s,))]
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
    return _run((
        ("generator_consistency", "basis", params, consistent, ("b",)),
        ("chi_delta_invariance", "basis", params, chi_delta_fixed, ("b",)),
        ("evolution_linearity", "basis", (PHI_WORD, PSI_WORD), fold_matches_lattice, ("word",)),
        ("phi_word_root_evolution", "basis", roots, phi_evolution, ("a",)),
    ))


def sample_schlesinger(rng: random.Random, bound: int = SCHLESINGER_BOUND) -> SchlesingerParams:
    """Random indices satisfying the Fuchs relation (kappa3 balances the sum)."""
    theta = _fractions(sample_integers(rng, 6, bound)[2])
    return SchlesingerParams(*theta, -sum(theta))


def _schlesinger_sample(rng: random.Random, bound: int = SCHLESINGER_BOUND) -> tuple:
    """A sample (theta, x, y) of the two psi checks as integers: (L, L (theta, x, y), the eight drawn pairs).

    theta is drawn as sample_schlesinger draws it, then x and y, and L is the lcm over those
    eight: kappa3's denominator divides it, and L kappa3 is minus the sum of the six L theta.
    """
    one, ints, pairs = sample_integers(rng, 8, bound)
    return one, (*ints[:6], -sum(ints[:6]), *ints[6:]), pairs


def _schlesinger_of(drawn: tuple) -> tuple[SchlesingerParams, Fraction, Fraction]:
    """The sample (theta, x, y) that a _schlesinger_sample draw stands for."""
    *theta, x, y = _fractions(drawn[2])
    return SchlesingerParams(*theta, -sum(theta)), x, y


def _same_points(f1: tuple, f2: tuple, g1: tuple, g2: tuple) -> bool:
    """f1 = f2 and g1 = g2 in P1 by cross-multiplication: the psi checks' pairs have nonzero denominators."""
    return f1[0] * f2[1] == f2[0] * f1[1] and g1[0] * g2[1] == g2[0] * g1[1]


def _psi_matches_word(sample: tuple) -> bool | None:
    # On L (theta, x, y): psi's pairs against the word's from the chart's L b.
    one, values, _ = sample
    x_new, y_new = _psi_closed_form(values, one, bool)
    chart, point = _chart_dictionary(values[:7], one), ((values[7], 1), (values[8], 1))
    word_b, word_x, word_y = eval_integers(PSI_WORD, chart, *point)
    if not (word_x[1] and word_y[1]):
        return None
    return word_b == _chart_dictionary(_shifted(values[:7], one), one) and _same_points(word_x, x_new, word_y, y_new)


def _transported(sample: tuple) -> bool | None:
    # One psi step, mapped by the change of variables, against one phi step under the matched dictionary.
    one, values, _ = sample
    indices, new_indices = values[:7], _shifted(values[:7], one)
    f_new, g_new = _change_of_variables(new_indices, *_psi_closed_form(values, one, bool))
    f, g = _change_of_variables(indices, (values[7], 1), (values[8], 1))
    b_phi, f_phi, g_phi = phi_integers(_matched_dictionary(indices, one), f, g)
    if not (f_phi[1] and g_phi[1]):
        return None
    return b_phi == _matched_dictionary(new_indices, one) and _same_points(f_phi, f_new, g_phi, g_new)


def _equivalence_rows(seed: int) -> tuple:
    """The rows of verify_equivalence: conjugation on the shared draw, transported_dynamics on its own stream."""
    conjugated = CONJUGATOR_WORD + PSI_WORD + tuple(reversed(CONJUGATOR_WORD))
    draw = lambda index: _schlesinger_sample(random.Random(f"equivalence:{seed}:{index}"))
    return (
        ("conjugation", "shared", phi_integers, partial(eval_integers, conjugated)),
        ("transported_dynamics", "stream", draw, _transported, "Schlesinger samples", ("theta", "x", "y"), _schlesinger_of),
    )


def verify_equivalence(trials: int = TRIALS, seed: int = 0, bound: int = SAMPLE_BOUND) -> EquivalenceReport:
    """Pointwise verification that the two dynamics are the same map.

    Two checks, both exact at seeded generic rational samples:

    1. conjugation: phi equals w5 o w3 o psi o (w5 o w3)^-1, with psi
       realized as its generator word on the canonical chart;
    2. transported dynamics: the change of variables intertwines one psi
       step (in (x, y)) with one phi step (in (f, g)) under the matched
       dictionary, including the parameter evolution.

    Both compare on integers, each sample drawn as integer pairs and scaled
    once (every map involved is homogeneous of degree 1).  The conjugation samples have numerators and
    denominators up to bound, the Schlesinger samples of the transport
    check up to SCHLESINGER_BOUND.  Raises ValueError when trials is below
    1, since neither check would then compare a sample.
    """
    return EquivalenceReport(tuple(_run(_equivalence_rows(seed), trials, seed, bound)))


def equivalence_suite(
    trials: int = TRIALS, seed: int = 0, max_word_length: int = MAX_WORD_LENGTH, bound: int = SAMPLE_BOUND, draw=None
) -> list[CheckResult]:
    """Translation analysis, conjugacy, and the full equivalence checks (the sampled ones on integers)."""
    rng = random.Random(f"psi-word:{seed}")

    def conjugator() -> tuple[bool, str]:
        found = find_conjugator(kac_vector(PSI_PIC_ACTION), kac_vector(PHI_PIC_ACTION), max_len=max_word_length)
        return found is not None and set(found) <= {"w3", "w5"}, "" if found is None else " ".join(found)

    return _run((
        ("pic_actions_match_words", "exact",
         lambda: word_to_picmap(PHI_WORD) == PHI_PIC_ACTION and word_to_picmap(PSI_WORD) == PSI_PIC_ACTION),
        ("translation_vectors", "exact", lambda: (
            translation_delta_vector(PHI_PIC_ACTION) == (0, 0, 0, 1, 0, -1, 0)
            and translation_delta_vector(PSI_PIC_ACTION) == (0, 0, 0, -1, 1, 1, -1)
        )),
        ("translation_norms", "exact",
         lambda: translation_norm(PHI_PIC_ACTION) == Fraction(4, 3) and translation_norm(PSI_PIC_ACTION) == Fraction(4, 3)),
        ("phi_cycles_surface_roots", "exact", lambda: surface_root_permutation(PHI_PIC_ACTION) == (1, 2, 0)),
        ("conjugator_found", "exact", conjugator),
        ("phi_formula_equals_word", "shared", phi_integers, partial(eval_integers, PHI_WORD)),
        ("psi_formula_equals_word", "stream",
         lambda _: _schlesinger_sample(rng), _psi_matches_word, "psi/word samples", ("theta", "x", "y"), _schlesinger_of),
        *_equivalence_rows(seed),
    ), trials, seed, bound, draw)


def run_suite(
    suite: str,
    trials: int = TRIALS,
    seed: int = 0,
    max_word_length: int = MAX_WORD_LENGTH,
    bound: int = SAMPLE_BOUND,
) -> list[CheckResult]:
    """The checks of one suite; "all" runs the four in SUITES order, on one shared draw."""
    draw = _scaled_state_draw(seed, bound)
    suites = {
        "coxeter": coxeter_suite,
        "birational": lambda: birational_suite(trials, seed, bound, draw),
        "period": period_suite,
        "equivalence": lambda: equivalence_suite(trials, seed, max_word_length, bound, draw),
    }
    if suite == "all":
        return [check for run in suites.values() for check in run()]
    if suite not in suites:
        raise ValueError(f"unknown suite {suite!r}")
    return suites[suite]()
