"""Lattice arithmetic, root bases, and coordinate conversions."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from e6painleve.birational import BirationalStep, Form, MapComparison, ProjectiveCoord, SurfacePoint
from e6painleve.decompose import ReductionStep, decompose
from e6painleve.models import PHI_WORD, OrbitEntry, OrbitTrace, SchlesingerParams
from e6painleve.periodmap import ParamVector, RootVariables
from e6painleve.piclattice import (
    CARTAN,
    DELTA_WEIGHTS,
    DivisorClass,
    E6_EDGES,
    H_F,
    H_G,
    NotInSymmetryLattice,
    RationalRootVector,
    RootVector,
    Sign,
    anticanonical,
    exceptional,
    from_alpha_coords,
    intersection,
    root_sign,
    surface_root,
    symmetry_root,
    to_alpha_coords,
)
from e6painleve.verify import CheckResult, EquivalenceReport
from e6painleve.weylgroup import PicMap, generator_picmap, word_to_picmap
from oracles import to_alpha_coords_oracle


def test_intersection_on_basis():
    assert intersection(H_F, H_G) == 1
    assert intersection(H_F, H_F) == 0
    assert intersection(H_G, H_G) == 0
    assert intersection(exceptional(3), exceptional(3)) == -1
    assert intersection(exceptional(3), exceptional(5)) == 0
    assert intersection(H_F, exceptional(2)) == 0


def test_anticanonical_class():
    k = anticanonical()
    assert k.coeffs == (2, 2, -1, -1, -1, -1, -1, -1, -1, -1)
    # Expanding (2Hf + 2Hg - sum Ei)^2 by bilinearity gives 8 - 8 = 0.
    assert intersection(k, k) == 0
    for i in range(3):
        assert intersection(k, surface_root(i)) == 0
    for j in range(7):
        assert intersection(k, symmetry_root(j)) == 0


def test_symmetry_roots():
    assert symmetry_root(0) == exceptional(3) - exceptional(4)
    assert symmetry_root(3) == H_F - exceptional(1) - exceptional(7)
    assert symmetry_root(5) == H_G - exceptional(1) - exceptional(5)
    for i in range(7):
        assert intersection(symmetry_root(i), symmetry_root(i)) == -2
    with pytest.raises(IndexError):
        symmetry_root(7)


def test_surface_roots():
    assert surface_root(1) == H_F - exceptional(5) - exceptional(6)
    assert surface_root(0).coeffs == (1, 1, -1, -1, -1, -1, 0, 0, 0, 0)
    assert surface_root(0) + surface_root(1) + surface_root(2) == anticanonical()
    for i in range(3):
        assert intersection(surface_root(i), surface_root(i)) == -2
    with pytest.raises(IndexError):
        surface_root(3)


def test_sublattices_orthogonal():
    for i in range(7):
        for j in range(3):
            assert intersection(symmetry_root(i), surface_root(j)) == 0


def test_cartan_matrix_matches_diagram():
    for i in range(7):
        for j in range(7):
            if i == j:
                expected = -2
            elif (i, j) in E6_EDGES or (j, i) in E6_EDGES:
                expected = 1
            else:
                expected = 0
            assert CARTAN[i][j] == expected


def test_intersection_bilinear_symmetric():
    # On classes, and on root vectors through from_alpha_coords: both types
    # run the operators of one integer-vector base, and keep their own type.
    rng = random.Random(0)
    on_roots = lambda x, y: intersection(from_alpha_coords(x), from_alpha_coords(y))
    for cls, form in ((DivisorClass, intersection), (RootVector, on_roots)):
        for _ in range(1000):
            a, b, c = (cls(tuple(rng.randint(-9, 9) for _ in range(cls.length))) for _ in range(3))
            k = rng.randint(-9, 9)
            assert form(a, b) == form(b, a)
            assert form(a + b, c) == form(a, c) + form(b, c)
            assert form(a - k * b, c) == form(a, c) - k * form(b, c)
            assert form(-a, c) == -form(a, c)
            assert {type(a + b), type(a - b), type(-a), type(k * a)} == {cls}


def test_to_alpha_coords():
    assert to_alpha_coords(symmetry_root(4)) == RootVector.of(0, 0, 0, 0, 1, 0, 0)
    assert to_alpha_coords(anticanonical()) == RootVector(DELTA_WEIGHTS)
    with pytest.raises(NotInSymmetryLattice):
        to_alpha_coords(H_F)


#: Indices of Hf, Hg, E1, E5 and E7: the coefficients to_alpha_coords checks
#: for membership in Q rather than reads coordinates from.
CHECKED = (0, 1, 2, 6, 8)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    x=st.tuples(*[st.integers(-20, 20)] * 7),
    shift=st.one_of(st.just((0,) * 5), st.tuples(*[st.integers(-2, 2)] * 5)),
)
def test_to_alpha_coords_matches_reconstruction_oracle(x, shift):
    # sum_i x_i a_i, moved on the checked coefficients only.  A zero shift
    # stays in Q, and so does any integer combination of a3 = Hf - E1 - E7
    # and a5 = Hg - E1 - E5; every other shift leaves it.
    coeffs = list(from_alpha_coords(RootVector(x)).coeffs)
    for k, s in zip(CHECKED, shift):
        coeffs[k] += s
    c = DivisorClass(tuple(coeffs))
    try:
        expected = to_alpha_coords_oracle(c)
    except NotInSymmetryLattice as exc:
        with pytest.raises(NotInSymmetryLattice) as raised:
            to_alpha_coords(c)
        assert str(raised.value) == str(exc)
    else:
        assert to_alpha_coords(c) == expected


def test_alpha_roundtrip_on_integers():
    rng = random.Random(1)
    for _ in range(200):
        v = RootVector(tuple(rng.randint(-20, 20) for _ in range(7)))
        assert to_alpha_coords(from_alpha_coords(v)) == v


def test_root_sign():
    assert root_sign(RootVector.of(0, 0, 0, 0, 1, 0, 0)) is Sign.POSITIVE
    assert root_sign(RootVector.of(-1, -2, -3, -2, -1, -2, -1)) is Sign.NEGATIVE
    assert root_sign(RootVector.of(1, -1, 0, 0, 0, 0, 0)) is Sign.MIXED
    assert root_sign(RootVector.of(0, 0, 0, 0, 0, 0, 0)) is Sign.ZERO


def test_divisor_class_validation():
    for cls, kind in ((DivisorClass, "divisor class"), (RootVector, "root vector")):
        with pytest.raises(ValueError) as length:
            cls((1, 2, 3))
        assert str(length.value) == f"expected {cls.length} coefficients, got 3"
        with pytest.raises(TypeError) as entries:
            cls((1.0,) * cls.length)
        assert str(entries.value) == f"{kind} coefficients must be integers"


def test_integer_vectors_keep_repr_equality_hash_and_pickling():
    for v in (H_F, RootVector.of(1, 2, 3, 2, 1, 2, 1)):
        name = type(v).__name__
        assert repr(v) == f"{name}(coeffs={v.coeffs!r})"
        assert pickle.loads(pickle.dumps(v)) == v == type(v).of(*v.coeffs)
        assert hash(type(v).of(*v.coeffs)) == hash(v) and v.to_json() == list(v.coeffs)
    assert DivisorClass.of(*[0] * 7, 1, 2, 3) != RootVector.of(*[0] * 4, 1, 2, 3)


def _value_objects():
    """One (build, field names, repr) per value class: build() makes a fresh equal object each call."""
    half = "ProjectiveCoord(numerator=1, denominator=2)"
    inf = "ProjectiveCoord(numerator=1, denominator=0)"
    indices = ("1/2", "1/3", "1/5", "1/7", "2/3", "3/5", "-171/70")
    theta_repr = (
        "SchlesingerParams(theta01=Fraction(1, 2), theta02=Fraction(1, 3), theta11=Fraction(1, 5), "
        "theta12=Fraction(1, 7), kappa1=Fraction(2, 3), kappa2=Fraction(3, 5), kappa3=Fraction(-171, 70))"
    )
    b_repr = ", ".join(f"Fraction({k}, 1)" for k in range(1, 9))
    check = "CheckResult(name='conjugation', passed=True, samples=3, rejected=1, note='', counterexample=None)"
    entry = f"OrbitEntry(step=0, params=ParamVector(b=({b_repr})), point=({half}, {inf}))"
    start = lambda: OrbitEntry(0, ParamVector.of(*range(1, 9)), (ProjectiveCoord(1, 2), ProjectiveCoord(1, 0)))
    form = Form.parse("(f*g + (b1 + b7)*f + b7*g)/(f - b1)")
    identity, w3 = PicMap.identity(), generator_picmap("w3")
    root = RootVector.of(1, 0, 0, 0, 0, 0, 0)
    theta = ", ".join(f"Fraction({Fraction(x).numerator}, {Fraction(x).denominator})" for x in indices)
    return [
        (lambda: DivisorClass.of(1, *[0] * 9), ("coeffs",), f"DivisorClass(coeffs={(1, *[0] * 9)!r})"),
        (lambda: RootVector.of(1, 2, 3, 2, 1, 2, 1), ("coeffs",), "RootVector(coeffs=(1, 2, 3, 2, 1, 2, 1))"),
        (
            lambda: RationalRootVector.of(1, "1/2", 0, 0, 0, 0, -3),
            ("coeffs",),
            "RationalRootVector(coeffs=(Fraction(1, 1), Fraction(1, 2), Fraction(0, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(0, 1), Fraction(-3, 1)))",
        ),
        (lambda: PicMap.identity(), ("rows",), f"PicMap(rows={identity.rows!r})"),
        (lambda: ProjectiveCoord(-3, -6), ("numerator", "denominator"), half),
        (lambda: SurfacePoint(ProjectiveCoord.finite("1/2"), ProjectiveCoord.infinity()), ("f", "g"),
         f"SurfacePoint(f={half}, g={inf})"),
        (
            lambda: Form.parse(form.text),
            ("text", "degree", "num", "den"),
            f"Form(text={form.text!r}, degree=(1, 1), num={form.num!r}, den={form.den!r})",
        ),
        (
            lambda: BirationalStep("w3", Form.parse("f"), Form.parse(form.text), generator_picmap("w3")),
            ("name", "coord_f", "coord_g", "picmap"),
            f"BirationalStep(name='w3', coord_f={Form.parse('f')!r}, coord_g={form!r}, picmap={w3!r})",
        ),
        (lambda: MapComparison(True, 3, 1), ("equal", "samples", "rejected", "counterexample"),
         "MapComparison(equal=True, samples=3, rejected=1, counterexample=None)"),
        (lambda: ReductionStep(2, (root,)), ("index", "images"), f"ReductionStep(index=2, images=({root!r},))"),
        (
            lambda: SchlesingerParams(*map(Fraction, indices)),
            ("theta01", "theta02", "theta11", "theta12", "kappa1", "kappa2", "kappa3"),  # the psi CSV header
            theta_repr,
        ),
        (lambda: CheckResult("conjugation", True, 3, 1),
         ("name", "passed", "samples", "rejected", "note", "counterexample"), check),
        (lambda: EquivalenceReport((CheckResult("conjugation", True, 3, 1),)), ("checks",),
         f"EquivalenceReport(checks=({check},))"),
        (start, ("step", "params", "point"), entry),
        (lambda: OrbitTrace("phi", (start(),)), ("kind", "entries"), f"OrbitTrace(kind='phi', entries=({entry},))"),
        (lambda: ParamVector.of(*range(1, 9)), ("b",), f"ParamVector(b=({b_repr}))"),
        (lambda: RootVariables.of(*indices), ("a",), f"RootVariables(a=({theta}))"),
    ]


def test_value_classes_keep_repr_equality_hash_pickling_and_frozen_fields():
    for build, fields, text in _value_objects():
        v, w = build(), build()
        assert repr(v) == text
        assert v is not w and v == w and not v != w and hash(v) == hash(w)
        assert pickle.loads(pickle.dumps(v)) == v
        assert type(v)(**{name: getattr(v, name) for name in fields}) == v
        with pytest.raises(AttributeError):
            setattr(v, fields[0], getattr(w, fields[0]))
    # A pickle holds only the fields, not what use has kept on the instance: compiled code, root images.
    text = "(f*g + (b1 + b7)*f + b7*g)/(f - b1)"
    step = lambda: BirationalStep("w3", Form.parse("f"), Form.parse(text), generator_picmap("w3"))
    used_step, used_form, used_map = step(), Form.parse(text), word_to_picmap(PHI_WORD * 4)
    used_step.kernel, used_form.compiled, decompose(used_map)
    for used, fresh in ((used_step, step()), (used_form, Form.parse(text)), (used_map, PicMap(used_map.rows))):
        copy = pickle.loads(pickle.dumps(used))
        assert copy == fresh and vars(copy) == vars(fresh)
    assert CheckResult(name="gauge", passed=False) == CheckResult("gauge", False, 0, 0, "", None)
    assert CheckResult("gauge", True, note="n").to_json() == {
        "name": "gauge", "passed": True, "samples": 0, "rejected": 0, "note": "n"
    }
    assert MapComparison(equal=True, samples=2, rejected=0).counterexample is None
    assert MapComparison(False, 1, 0, counterexample=(1, 2)) != MapComparison(False, 1, 0)
    assert RootVariables.of(*range(7)) != RationalRootVector.of(*range(7))
