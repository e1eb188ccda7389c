"""Word decomposition by the negative-image reduction procedure."""

import collections
import hashlib
import importlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from e6painleve import weylgroup
from e6painleve.decompose import (
    NoAutomorphismMatch,
    NotInGroup,
    decompose,
    match_automorphism,
    simple_root_images,
)
from e6painleve.models import PHI_PIC_ACTION, PHI_WORD, PSI_PIC_ACTION, PSI_WORD
from e6painleve.piclattice import CARTAN, RootVector, Sign, root_sign, symmetry_root
from oracles import (
    ALPHA_PERMUTATIONS,
    decompose_oracle,
    decompose_scanning_oracle,
    translation_delta_vector_oracle,
    translation_norm_oracle,
)
from e6painleve.weylgroup import (
    NotTranslation,
    PicMap,
    SYMBOLS,
    generator_picmap,
    invert_word,
    translation_delta_vector,
    translation_norm,
    word_to_picmap,
)

IDENTITY_ROWS = [[int(i == j) for j in range(10)] for i in range(10)]


def _picmap(rows):
    return PicMap(tuple(tuple(r) for r in rows))


def _swapped(i, j):
    rows = [list(r) for r in IDENTITY_ROWS]
    rows[i], rows[j] = rows[j], rows[i]
    return _picmap(rows)


# Matrices outside the group, each with the NotInGroup message decompose gives.
OUTSIDE_GROUP = (
    (_picmap([[2 * x for x in r] for r in IDENTITY_ROWS]), "image of a_0 is not a simple root"),
    (
        _picmap([[-x for x in r] for r in IDENTITY_ROWS]),
        "reduction did not finish within 4096 steps; map is outside the group or longer than 4096 letters",
    ),
    (_swapped(0, 2), "map does not preserve the symmetry sublattice"),
    # I + e_0 v^T with v = Hf + E7 + E8 coefficientwise orthogonal to every
    # a_i: it fixes every simple root, so only the final matrix check fails.
    (
        _picmap([[x + (i == 0) * (j in (0, 8, 9)) for j, x in enumerate(r)] for i, r in enumerate(IDENTITY_ROWS)]),
        "reduced word does not reproduce the map on the full lattice",
    ),
)


def test_decompose_phi():
    word = decompose(PHI_PIC_ACTION)
    assert word_to_picmap(word) == PHI_PIC_ACTION
    assert word[0] == "r"
    assert len(word) == 17


def test_decompose_psi():
    word = decompose(PSI_PIC_ACTION)
    assert word_to_picmap(word) == PSI_PIC_ACTION
    assert word[0] == "r"
    assert len(word) == 17


def test_decompose_single_automorphism_and_identity():
    assert decompose(generator_picmap("r")) == ("r",)
    assert decompose(generator_picmap("m0")) == ("m0",)
    assert decompose(PicMap.identity()) == ()


def test_decompose_single_reflection():
    for i in range(7):
        assert decompose(generator_picmap(f"w{i}")) == (f"w{i}",)


def test_decompose_random_words_is_sound():
    rng = random.Random(23)
    for _ in range(50):
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 12)))
        m = word_to_picmap(word)
        recovered = decompose(m)
        assert word_to_picmap(recovered) == m


def test_decompose_output_not_longer_than_reduced_greedy_input():
    # Words built greedily so that no letter cancels its neighbor; the
    # decomposition never needs more letters than such an input.
    rng = random.Random(29)
    for _ in range(30):
        target = rng.randint(1, 10)
        word: list[str] = []
        while len(word) < target:
            s = rng.choice(SYMBOLS[:7])
            if word and word[-1] == s:
                continue
            word.append(s)
        m = word_to_picmap(word)
        assert len(decompose(m)) <= len(word)


def test_decompose_output_is_unchanged_on_the_words_mix():
    # 120 seeded elements in the proportions of the benchmark's words
    # workload: random words of length 4-128, and phi^n or psi^n for
    # n <= 16, bare or conjugated by a random word of length 1-6.  The
    # sha256 of every word and trace was taken from the tuple-update
    # reduction with lattice membership decided by reconstruction.
    rng = random.Random(11)
    digest = hashlib.sha256()
    for i in range(120):
        if i % 5 < 3:
            word = tuple(rng.choices(SYMBOLS, k=rng.randint(4, 128)))
        else:
            word = rng.choice((PHI_WORD, PSI_WORD)) * rng.randint(1, 16)
            if rng.random() < 0.5:
                conj = tuple(rng.choices(SYMBOLS, k=rng.randint(1, 6)))
                word = conj + word + invert_word(conj)
        out, steps = decompose(word_to_picmap(word), trace=True)
        trace = [[s.index, [list(v.coeffs) for v in s.images]] for s in steps]
        digest.update(json.dumps([list(out), trace]).encode())
    assert digest.hexdigest() == "ec7b406c053b46ae221c50af097db44c9520cbac6bb899d2d34d5df90944693d"


def test_decompose_reduces_up_to_the_cap_and_names_the_cap_past_it():
    # phi^n reduces to r and 16n reflections: phi^256 takes exactly MAX_REDUCTION_STEPS pivots.
    m = word_to_picmap(PHI_WORD * 256)
    word = decompose(m)
    assert len(word) == 4097 and word[0] == "r"
    assert word_to_picmap(word) == m
    m = word_to_picmap(PHI_WORD * 257)
    message = "reduction did not finish within 4096 steps; map is outside the group or longer than 4096 letters"
    for trace in (False, True):
        with pytest.raises(NotInGroup) as excinfo:
            decompose(m, trace=trace)
        assert str(excinfo.value) == message
    assert _outcome(decompose_oracle, m) == (NotInGroup, message)


def test_decompose_then_translation_norm_read_the_root_images_once(monkeypatch):
    calls, alpha_coords = [], weylgroup._alpha_coords

    def spy(coeffs):
        calls.append(coeffs)
        return alpha_coords(coeffs)

    monkeypatch.setattr(weylgroup, "_alpha_coords", spy)
    m = word_to_picmap(PHI_WORD * 4)
    fresh = PicMap(m.rows)
    decompose(m)
    translation_norm(m)
    assert len(calls) == 7
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert translation_norm(fresh) == translation_norm(m) and len(calls) == 14


def test_decompose_trace():
    word, steps = decompose(PHI_PIC_ACTION, trace=True)
    assert word_to_picmap(word) == PHI_PIC_ACTION
    assert len(steps) == 16  # reflection part of the 17-letter word
    assert all(0 <= s.index <= 6 for s in steps)


def test_match_automorphism():
    basis = [RootVector(tuple(1 if j == i else 0 for j in range(7))) for i in range(7)]
    assert match_automorphism(tuple(basis)) == ""
    for symbol, perm in ALPHA_PERMUTATIONS.items():
        images = tuple(basis[perm[i]] for i in range(7))
        assert match_automorphism(images) == symbol
    # swapping a0, a1 is no diagram symmetry
    swapped = (basis[1], basis[0]) + tuple(basis[2:])
    with pytest.raises(NoAutomorphismMatch) as excinfo:
        match_automorphism(swapped)
    assert str(excinfo.value) == "permutation is not a diagram automorphism"
    # non-simple image
    bad = (RootVector.of(1, 1, 0, 0, 0, 0, 0),) + tuple(basis[1:])
    with pytest.raises(NoAutomorphismMatch) as excinfo:
        match_automorphism(bad)
    assert str(excinfo.value) == "image of a_0 is not a simple root"
    # two roots sent to one
    doubled = (basis[0],) + tuple(basis[:6])
    with pytest.raises(NoAutomorphismMatch) as excinfo:
        match_automorphism(doubled)
    assert str(excinfo.value) == "images are not a permutation of the simple roots"


def test_not_in_group_when_symmetry_lattice_not_preserved():
    # Negating E8 preserves the form but moves the canonical class; its
    # alpha-images leave the symmetry sublattice.
    rows = [[1 if i == j else 0 for j in range(10)] for i in range(10)]
    rows[9][9] = -1
    with pytest.raises(NotInGroup) as excinfo:
        decompose(PicMap(tuple(tuple(r) for r in rows)))
    assert str(excinfo.value) == "map does not preserve the symmetry sublattice"


@pytest.mark.parametrize("m, message", OUTSIDE_GROUP)
def test_not_in_group_messages(m, message):
    for trace in (False, True):
        with pytest.raises(NotInGroup) as excinfo:
            decompose(m, trace=trace)
        assert str(excinfo.value) == message


def test_simple_root_images_of_automorphism_match_tables():
    imgs = simple_root_images(generator_picmap("r"))
    perm = ALPHA_PERMUTATIONS["r"]
    for i in range(7):
        expected = RootVector(tuple(1 if j == perm[i] else 0 for j in range(7)))
        assert imgs[i] == expected


def test_trace_steps_are_right_reflections():
    # Each traced step moves the images by v_j + c_ij v_i for its pivot i,
    # and the pivot is the first image that is a negative root.
    conj = ("w1", "m2", "w6")
    for word in (PHI_WORD * 4, conj + PSI_WORD * 2 + invert_word(conj)):
        m = word_to_picmap(word)
        recovered, steps = decompose(m, trace=True)
        assert word_to_picmap(recovered) == m
        assert len(steps) > 16
        images = simple_root_images(m)
        for step in steps:
            signs = [root_sign(v) for v in images]
            assert signs.index(Sign.NEGATIVE) == step.index
            pivot = images[step.index]
            images = tuple(v + CARTAN[step.index][j] * pivot for j, v in enumerate(images))
            assert step.images == images
        assert Sign.NEGATIVE not in [root_sign(v) for v in images]


def _outcome(f, m):
    """f(m), or the type and message of the exception it raises."""
    try:
        return f(m)
    except (NotInGroup, NotTranslation) as exc:
        return type(exc), str(exc)


_symbol = st.sampled_from(SYMBOLS)
_power = st.builds(
    lambda base, n, conj: conj + base * n + invert_word(conj),
    st.sampled_from((PHI_WORD, PSI_WORD)),
    st.integers(0, 16),
    st.one_of(st.just(()), st.lists(_symbol, min_size=1, max_size=6).map(tuple)),
)
_element = st.one_of(st.lists(_symbol, max_size=128).map(tuple), _power).map(word_to_picmap)


@st.composite
def _perturbed(draw):
    """A drawn element perturbed by _perturbed_copy, with its kind and its random choices drawn.

    The two kinds that keep the symmetry sublattice come first, as hypothesis
    draws the first choice most often.
    """
    return _perturbed_copy(draw(_element), draw(st.sampled_from((1, 2, 0))), draw(st.randoms(use_true_random=False)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_element, _perturbed(), st.sampled_from([m for m, _ in OUTSIDE_GROUP])))
def test_decompose_and_translation_norm_match_the_scanning_oracles(m):
    # The same word and trace, or the same exception and message, as the
    # reduction that rescans every image and applies m to each simple root.
    traced = _outcome(lambda m: decompose_scanning_oracle(m, trace=True), m)
    assert _outcome(lambda m: decompose(m, trace=True), m) == traced
    assert _outcome(translation_delta_vector, m) == _outcome(translation_delta_vector_oracle, m)
    assert _outcome(translation_norm, m) == _outcome(translation_norm_oracle, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_element, _perturbed(), st.sampled_from([m for m, _ in OUTSIDE_GROUP])))
def test_decompose_without_trace_matches_the_scanning_oracle(m):
    # Without a trace decompose skips only the replay of its pivots; it must
    # give the oracle's word, or its exception and message.
    assert _outcome(decompose, m) == _outcome(decompose_scanning_oracle, m)


@pytest.mark.parametrize("word, residual", [(("m0",) + PHI_WORD, "m1"), (PHI_WORD * 2, "r2")])
def test_decompose_without_trace_matches_the_oracle_on_residual_automorphisms(word, residual):
    m = word_to_picmap(word)
    out = decompose(m)
    assert out == decompose_scanning_oracle(m) == decompose(m, trace=True)[0]
    assert out[0] == residual
    assert word_to_picmap(out) == m


def test_most_drawn_perturbations_reach_the_reduction():
    # Two of _perturbed's three kinds keep the symmetry sublattice, so most
    # of the maps it draws get past _root_images to the reduction.
    outcomes = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_perturbed())
    def record(m):
        outcomes.append(_outcome(decompose, m))

    record()
    reached = sum(out != (NotInGroup, "map does not preserve the symmetry sublattice") for out in outcomes)
    assert reached > len(outcomes) / 2, (reached, len(outcomes))


def _seeded_elements():
    """1,009 group elements: 15 seeded words of each length 0-64 over all 12 symbols, phi^n and psi^n, n <= 16."""
    rng = random.Random(24)
    words = [tuple(rng.choices(SYMBOLS, k=n)) for n in range(65) for _ in range(15)]
    return [word_to_picmap(w) for w in words + [base * n for base in (PHI_WORD, PSI_WORD) for n in range(17)]]


def _perturbed_copy(m, i, rng):
    """m made non-group in one of three ways, taken in turn by i."""
    rows = [list(r) for r in m.rows]
    if i % 3 == 0:  # one entry moved: the images mostly leave the symmetry sublattice
        rows[rng.randrange(10)][rng.randrange(10)] += rng.choice((-1, 1))
    elif i % 3 == 1:  # a simple root added to a column: the images stay in it but stop being roots
        j, sign, root = rng.randrange(10), rng.choice((-1, 1)), symmetry_root(rng.randrange(7)).coeffs
        for k in range(10):
            rows[k][j] += sign * root[k]
    else:  # m (I + e_k v^T), v = Hf + E7 + E8: the simple-root images stay m's, only the matrix check fails
        k = rng.randrange(10)
        for r in rows:
            r[0], r[8], r[9] = r[0] + r[k], r[8] + r[k], r[9] + r[k]
    return _picmap(rows)


def test_decompose_matches_the_root_vector_loop_on_seeded_elements_and_perturbations():
    # The loop that chose every pivot by root_sign on the seven root vectors
    # and wrote the word and trace from them: decompose must give its words,
    # traces and messages, traced or not, and drop only the steps untraced.
    rng = random.Random(25)
    elements = _seeded_elements()
    outside = [_perturbed_copy(m, i, rng) for i, m in enumerate(elements)]
    outside += [_picmap([[-x for x in r] for r in m.rows]) for m in elements[::101]]  # reductions that never end
    outside += [m for m, _ in OUTSIDE_GROUP[:2]]
    messages = collections.Counter()
    for m, in_group in [(m, True) for m in elements] + [(m, False) for m in outside]:
        traced, plain = _outcome(lambda m: decompose(m, trace=True), m), _outcome(decompose, m)
        assert traced == _outcome(lambda m: decompose_oracle(m, trace=True), m)
        assert plain == _outcome(decompose_oracle, m)
        assert (plain[:1] != (NotInGroup,)) == in_group
        if in_group:
            assert plain == traced[0]
        else:
            assert plain == traced
            messages[re.sub(r"a_\d", "a_i", plain[1])] += 1
    # Every failure message of the reduction, each on at least ten inputs.
    assert len(messages) == 4 and min(messages.values()) >= 10, messages


def test_untraced_decompose_builds_no_root_vector(monkeypatch):
    def forbidden(coeffs):
        raise AssertionError("RootVector built without a trace")

    monkeypatch.setattr(importlib.import_module("e6painleve.decompose"), "RootVector", forbidden)
    for m in _seeded_elements()[::20]:
        assert word_to_picmap(decompose(m)) == m
