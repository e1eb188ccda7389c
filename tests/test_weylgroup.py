"""Generator matrices, group relations, translations, and conjugacy search."""

import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from e6painleve.models import PHI_PIC_ACTION, PHI_WORD, PSI_PIC_ACTION, PSI_WORD
from e6painleve.piclattice import (
    CARTAN,
    DELTA_WEIGHTS,
    DivisorClass,
    E6_EDGES,
    H_F,
    H_G,
    anticanonical,
    exceptional,
    gram_matrix,
    surface_root,
)
from e6painleve.weylgroup import (
    ALPHA_PERMUTATIONS,
    AUTOMORPHISM_SYMBOLS,
    NormMismatch,
    NotTranslation,
    PicMap,
    REFLECTION_SYMBOLS,
    SYMBOLS,
    find_conjugator,
    fold_root_values,
    generator_picmap,
    invert_word,
    kac_vector,
    parse_word,
    surface_root_permutation,
    translation_delta_vector,
    translation_norm,
    word_to_picmap,
)
import e6painleve.weylgroup as weylgroup

IDENTITY = PicMap.identity()


def _basis_swap(i, j):
    """The matrix exchanging basis classes i and j."""
    rows = [list(r) for r in IDENTITY.rows]
    rows[i], rows[j] = rows[j], rows[i]
    return PicMap(tuple(tuple(r) for r in rows))



def test_generator_actions_on_basis():
    w3 = generator_picmap("w3")
    assert w3(H_G) == H_F + H_G - exceptional(1) - exceptional(7)
    assert w3(H_F) == H_F
    w0 = generator_picmap("w0")
    assert w0(exceptional(3)) == exceptional(4)
    assert w0(exceptional(4)) == exceptional(3)
    for i in (1, 2, 5, 6, 7, 8):
        assert w0(exceptional(i)) == exceptional(i)
    assert w0(H_F) == H_F and w0(H_G) == H_G
    r = generator_picmap("r")
    assert r(exceptional(5)) == exceptional(7)


def test_generators_are_cremona_isometries():
    for s in SYMBOLS:
        assert generator_picmap(s).is_cremona_isometry(), s


def test_cremona_isometry_matches_dense_form():
    # Reference: M^T J M = J as the full double sum, and K fixed.
    gram = gram_matrix()
    canonical = tuple(-c for c in anticanonical().coeffs)

    def dense(m):
        form_ok = all(
            sum(m.rows[i][a] * gram[i][k] * m.rows[k][b] for i in range(10) for k in range(10))
            == gram[a][b]
            for a in range(10)
            for b in range(10)
        )
        image = tuple(sum(m.rows[i][j] * canonical[j] for j in range(10)) for i in range(10))
        return form_ok and image == canonical

    rng = random.Random(19)
    maps = [word_to_picmap(rng.choices(SYMBOLS, k=rng.randint(0, 30))) for _ in range(10)]
    maps += [_basis_swap(0, 1), _basis_swap(2, 3), _basis_swap(0, 2)]
    for m in list(maps):
        rows = [list(r) for r in m.rows]
        rows[rng.randrange(10)][rng.randrange(10)] += rng.choice((-1, 1))
        maps.append(PicMap(tuple(tuple(r) for r in rows)))
    for m in maps:
        assert m.is_cremona_isometry() == dense(m)
    assert any(m.is_cremona_isometry() for m in maps)
    assert not all(m.is_cremona_isometry() for m in maps)


def test_word_composition_convention():
    a, b = generator_picmap("w3"), generator_picmap("w5")
    assert word_to_picmap(("w3", "w5")) == a @ b
    assert word_to_picmap(("w3", "w3")) == IDENTITY
    assert word_to_picmap(("r", "r", "r")) == IDENTITY
    assert word_to_picmap(()) == IDENTITY


def test_parse_word_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        parse_word(["w3", "w9"])


def test_invert_word():
    assert invert_word(("w5", "w3")) == ("w3", "w5")
    assert invert_word(("r",)) == ("r2",)
    word = ("r", "w5", "w2", "w0")
    assert word_to_picmap(invert_word(word)) @ word_to_picmap(word) == IDENTITY


def test_coxeter_relations():
    for i in range(7):
        for j in range(i + 1, 7):
            order = 3 if (i, j) in E6_EDGES else 2
            product = generator_picmap(f"w{i}") @ generator_picmap(f"w{j}")
            power = IDENTITY
            for _ in range(order):
                power = power @ product
            assert power == IDENTITY, (i, j)


def test_braid_relations_as_matrices():
    for i, j in sorted(E6_EDGES):
        lhs = word_to_picmap((f"w{i}", f"w{j}", f"w{i}"))
        rhs = word_to_picmap((f"w{j}", f"w{i}", f"w{j}"))
        assert lhs == rhs


def test_dihedral_relations():
    r = generator_picmap("r")
    assert r @ r == generator_picmap("r2")
    for s in ("m0", "m1", "m2"):
        assert word_to_picmap((s, s)) == IDENTITY
    assert generator_picmap("m0") @ r == generator_picmap("r2") @ generator_picmap("m0")


def test_derived_automorphisms_match_their_basis_tables():
    # m1 = m0 r, m2 = r m0 and r2 = r r send Hf and Hg where the hand tables
    # did; with the oracle alpha- and surface-root permutations (tested
    # below) these two images fix each matrix, as Hf.delta != 0.
    d0 = H_F + H_G - exceptional(1) - exceptional(2)
    for symbol, (hf, hg) in {"m1": (H_F, d0), "m2": (d0, H_G), "r2": (d0, H_F)}.items():
        assert (generator_picmap(symbol)(H_F), generator_picmap(symbol)(H_G)) == (hf, hg), symbol


def test_semidirect_relations():
    for sigma in AUTOMORPHISM_SYMBOLS:
        s = generator_picmap(sigma)
        s_inv = s.inverse()
        for i in range(7):
            conjugated = s @ generator_picmap(f"w{i}") @ s_inv
            assert conjugated == generator_picmap(f"w{oracles.ALPHA_PERMUTATIONS[sigma][i]}")
    # the named instance: m1 w0 m1 = w4
    assert word_to_picmap(("m1", "w0", "m1")) == generator_picmap("w4")


def test_alpha_permutations_match_oracle():
    assert set(ALPHA_PERMUTATIONS) == set(AUTOMORPHISM_SYMBOLS)
    for sigma in AUTOMORPHISM_SYMBOLS:
        assert ALPHA_PERMUTATIONS[sigma] == oracles.ALPHA_PERMUTATIONS[sigma], sigma


def test_surface_root_action():
    for s in REFLECTION_SYMBOLS:
        assert surface_root_permutation(generator_picmap(s)) == (0, 1, 2), s
    for sigma in AUTOMORPHISM_SYMBOLS:
        perm = surface_root_permutation(generator_picmap(sigma))
        assert perm == oracles.SURFACE_PERMUTATIONS[sigma], sigma
        for j in range(3):
            assert generator_picmap(sigma)(surface_root(j)) == surface_root(perm[j])
    assert surface_root_permutation(PHI_PIC_ACTION) == (1, 2, 0)
    # Swapping E1 and E5 sends d0 = Hf + Hg - E1 - ... - E4 off the surface roots.
    assert surface_root_permutation(_basis_swap(2, 6)) is None


def test_phi_induces_surface_root_cycle():
    for j in range(3):
        assert PHI_PIC_ACTION(surface_root(j)) == surface_root((j + 1) % 3)


def test_translation_delta_vectors():
    assert translation_delta_vector(PHI_PIC_ACTION) == (0, 0, 0, 1, 0, -1, 0)
    assert translation_delta_vector(PSI_PIC_ACTION) == (0, 0, 0, -1, 1, 1, -1)
    with pytest.raises(NotTranslation):
        translation_delta_vector(generator_picmap("w3"))


@pytest.mark.parametrize(
    "m, message",
    [
        # Swapping Hf and E1 sends a_2 = E1 - E2 to Hf - E2, outside Q; a_0
        # and a_1 are fixed, so they pass first.
        (_basis_swap(0, 2), "image of a_2 is outside the symmetry lattice"),
        (_basis_swap(0, 5), "image of a_0 is outside the symmetry lattice"),
        (generator_picmap("w3"), "image of a_2 is not a_2 plus a multiple of delta"),
        (PicMap(tuple(tuple(2 * x for x in row) for row in IDENTITY.rows)), "image of a_0 is not a_0 plus a multiple of delta"),
    ],
)
def test_not_translation_messages(m, message):
    for f in (translation_delta_vector, kac_vector, translation_norm):
        with pytest.raises(NotTranslation) as excinfo:
            f(m)
        assert str(excinfo.value) == message


def test_kac_vectors():
    third = Fraction(1, 3)
    assert kac_vector(PHI_PIC_ACTION).coeffs == (0, 0, 0, -2 * third, -third, 2 * third, third)
    assert kac_vector(PSI_PIC_ACTION).coeffs == (0, 0, 0, third, -third, -third, third)
    assert kac_vector(IDENTITY).coeffs == (Fraction(0),) * 7


def test_kac_vector_matches_elimination_oracle():
    rng = random.Random(17)
    elements = [word_to_picmap(PHI_WORD * n) for n in range(6)]
    elements += [word_to_picmap(PSI_WORD * n) for n in range(1, 6)]
    for _ in range(20):
        w = tuple(rng.choices(SYMBOLS, k=rng.randint(1, 8)))
        power = rng.choice((PHI_WORD, PSI_WORD)) * rng.randint(1, 4)
        elements.append(word_to_picmap(w + power + invert_word(w)))
    for m in elements:
        expected = oracles.kac_vector_oracle(CARTAN, translation_delta_vector(m), DELTA_WEIGHTS)
        assert kac_vector(m).coeffs == expected


def test_kac_vector_needs_only_the_null_root_test():
    # _scaled_kac_vector tests only sum delta_i n_i = 0: the adjugate of the
    # finite block C_f solves rows 1-6 exactly, and row 0 then holds since
    # CARTAN delta = 0.
    assert [sum(c * w for c, w in zip(row, DELTA_WEIGHTS)) for row in CARTAN] == [0] * 7
    det, adjugate = weylgroup._finite_cartan_adjugate()
    block = [row[1:] for row in CARTAN[1:]]
    assert det == 3
    assert [[sum(block[i][k] * adjugate[k][j] for k in range(6)) for j in range(6)] for i in range(6)] == [
        [det * (i == j) for j in range(6)] for i in range(6)
    ]


def test_kac_vector_rejects_inconsistent_translation(monkeypatch):
    ns = (1, 0, 0, 0, 0, 0, 0)  # sum delta_i n_i = 1: no solution
    assert oracles.kac_vector_oracle(CARTAN, ns, DELTA_WEIGHTS) is None
    monkeypatch.setattr(weylgroup, "translation_delta_vector", lambda m: ns)
    for f in (kac_vector, translation_norm):
        with pytest.raises(NotTranslation) as excinfo:
            f(IDENTITY)
        assert str(excinfo.value) == "inconsistent translation vector"


def test_translation_norms():
    assert translation_norm(PHI_PIC_ACTION) == Fraction(4, 3)
    assert translation_norm(PSI_PIC_ACTION) == Fraction(4, 3)
    assert translation_norm(IDENTITY) == 0


def test_norm_invariant_under_conjugation():
    rng = random.Random(5)
    for _ in range(50):
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 6)))
        w = word_to_picmap(word)
        conjugate = w @ PHI_PIC_ACTION @ w.inverse()
        assert translation_norm(conjugate) == Fraction(4, 3)


def test_find_conjugator_between_the_dynamics():
    src = kac_vector(PSI_PIC_ACTION)
    dst = kac_vector(PHI_PIC_ACTION)
    word = find_conjugator(src, dst, max_len=2)
    assert word == ("w3", "w5")
    # The word conjugates psi into phi on the lattice, not only on the vectors.
    assert word_to_picmap(word) @ PSI_PIC_ACTION @ word_to_picmap(invert_word(word)) == PHI_PIC_ACTION


def test_find_conjugator_trivial_and_mismatch():
    src = kac_vector(PHI_PIC_ACTION)
    assert find_conjugator(src, src, max_len=2) == ()
    with pytest.raises(NormMismatch):
        find_conjugator(src, kac_vector(IDENTITY), max_len=2)


def test_find_conjugator_not_found():
    # psi's vector reaches phi's only at length 2, so a depth-1 search fails.
    src = kac_vector(PSI_PIC_ACTION)
    dst = kac_vector(PHI_PIC_ACTION)
    assert find_conjugator(src, dst, max_len=1) is None


def test_picmap_serialization_roundtrip():
    m = word_to_picmap(("r", "w3"))
    assert PicMap(tuple(tuple(row) for row in m.to_json())) == m


def test_word_to_picmap_matches_dense_product():
    # Reference: the dense left-to-right product of the generator matrices.
    def dense(word):
        return reduce(lambda m, s: m @ generator_picmap(s), word, IDENTITY)

    rng = random.Random(41)
    words = [tuple(rng.choices(SYMBOLS, k=n)) for n in (0, 1, 2, 3, 200)]
    words += [tuple(rng.choices(SYMBOLS, k=rng.randint(0, 200))) for _ in range(12)]
    conj = ("m1", "w2", "r", "w5")
    words += [PHI_WORD * 16, conj + PSI_WORD * 8 + invert_word(conj)]
    for word in words:
        assert word_to_picmap(word) == dense(word)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SYMBOLS), max_size=64))
def test_word_to_picmap_matches_the_matrix_product(word):
    # The compiled column steps against the left-to-right @ product.
    assert word_to_picmap(word) == reduce(lambda m, s: m @ generator_picmap(s), word, IDENTITY)


def test_word_to_picmap_rejects_unknown_symbols():
    with pytest.raises(ValueError) as excinfo:
        word_to_picmap(("w7",))
    assert str(excinfo.value) == "unknown generator symbol 'w7'"


def test_column_step_rejects_other_entries(monkeypatch):
    doubled = PicMap(tuple(tuple(2 * x for x in row) for row in IDENTITY.rows))
    monkeypatch.setattr(weylgroup, "generator_picmap", lambda symbol: doubled)
    with pytest.raises(KeyError):
        weylgroup._column_step("w0")


def test_picmap_application_matches_dense_matvec():
    rng = random.Random(43)
    for _ in range(30):
        m = word_to_picmap(rng.choices(SYMBOLS, k=rng.randint(0, 40)))
        coeffs = tuple(rng.choice((0, 0, 0, -3, -1, 1, 2, 7)) for _ in range(10))
        expected = tuple(sum(m.rows[i][j] * coeffs[j] for j in range(10)) for i in range(10))
        assert m(DivisorClass(coeffs)).coeffs == expected


def _conjugator_outcome(search, src, dst, max_len):
    """The word or None a search returns, or the type and message of its NormMismatch."""
    try:
        return search(src, dst, max_len)
    except NormMismatch as exc:
        return type(exc), str(exc)


@st.composite
def _conjugate_translations(draw):
    """Kac vectors of two conjugated powers of phi or psi, and a search depth.

    The second power, often of the same n, is conjugated by a few more
    reflections, so that a conjugating word often exists.
    """
    n = draw(st.integers(1, 4))
    conj = tuple(draw(st.lists(st.sampled_from(SYMBOLS), max_size=4)))
    bases = st.sampled_from((PHI_WORD, PSI_WORD))
    src = conj + draw(bases) * n + invert_word(conj)
    conj = tuple(draw(st.lists(st.sampled_from(REFLECTION_SYMBOLS), max_size=4))) + conj
    dst = conj + draw(bases) * draw(st.one_of(st.just(n), st.integers(0, 4))) + invert_word(conj)
    return kac_vector(word_to_picmap(src)), kac_vector(word_to_picmap(dst)), draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_conjugate_translations())
def test_find_conjugator_matches_the_fraction_oracle(case):
    # The same word, the same None or the same NormMismatch as the search on
    # Fraction-valued root variables.
    assert _conjugator_outcome(find_conjugator, *case) == _conjugator_outcome(oracles.find_conjugator_oracle, *case)


_LARGE = st.sampled_from((-(2**80), 2**80))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(SYMBOLS), max_size=64),
    st.sampled_from((tuple, list, lambda word: (s for s in word))),
    st.one_of(
        st.lists(st.integers(-(2**80), 2**80) | _LARGE, min_size=7, max_size=7),
        st.lists(st.fractions(max_denominator=10**6), min_size=7, max_size=7),
    ),
)
def test_fold_root_values_matches_the_letter_loop(word, container, values):
    # The compiled steps against the former loop, on a word passed as a
    # tuple, a list or a generator, on ints and on Fractions.
    folded = fold_root_values(container(word), tuple(values))
    expected = oracles.fold_oracle(word, values)
    assert type(folded) is list
    assert folded == expected and list(map(type, folded)) == list(map(type, expected))


@pytest.mark.parametrize(
    "word",
    (("w1", "w9", "w2", "r"), ("x", "w0", "w1"), ("w1", ["w0"], "w2"), ("bad", ["w0"], "m0"), (None,)),
)
def test_fold_root_values_rejects_a_word_as_parse_word(word):
    # The fold runs right to left, so it meets a valid suffix, or an
    # unhashable symbol, before the first unknown symbol that parse_word names.
    with pytest.raises(ValueError) as expected:
        parse_word(word)
    with pytest.raises(ValueError) as got:
        fold_root_values(word, range(7))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n", (0, 6, 8))
def test_fold_root_values_needs_seven_values(n):
    for word in ((), ("w0", "r")):
        with pytest.raises(ValueError, match=f"expected 7 root values, got {n}"):
            fold_root_values(word, range(n))


def test_the_fold_steps_are_compiled_on_the_first_fold_only():
    # The benchmark's set-up path (import the CLI, build every generator's
    # matrix and birational step) compiles no fold step: that cost stays
    # with the first fold.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parents[1] / 'src')!r})\n"
        "import e6painleve, e6painleve.cli\n"
        "from e6painleve.birational import generator_step\n"
        "from e6painleve.weylgroup import SYMBOLS, _fold_steps, fold_root_values, generator_picmap\n"
        "for s in SYMBOLS:\n"
        "    generator_picmap(s)\n"
        "    generator_step(s)\n"
        "print(_fold_steps.cache_info().misses)\n"
        "fold_root_values(SYMBOLS, range(7))\n"
        "print(_fold_steps.cache_info().misses)\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.split() == ["0", "1"]
