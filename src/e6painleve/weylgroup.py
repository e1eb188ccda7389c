"""The extended affine Weyl group of type E6^(1) acting on the Picard lattice.

Generators are the seven simple reflections w0..w6 in the symmetry roots,

    w_i(C) = C + (C.a_i) a_i,

together with the five nontrivial diagram automorphisms m0, m1, m2, r, r2
(the dihedral group of the triangle of surface roots).  Every generator is a
Cremona isometry: it preserves the intersection form and fixes the canonical
class.  Words are finite sequences of generator symbols; the sequence
(g1, g2, ..., gk) denotes the composition g1 o g2 o ... o gk, with gk applied
first, so that word_to_picmap is the left-to-right matrix product.  That
product is kept as the 10 integer columns of the running matrix M: a letter
G acts on the right as a column operation, column j of M G being
sum_k G[k][j] col_k(M).  A reflection moves two or three columns, an
automorphism mostly permutes them; every moved column adds or subtracts at
most four old ones, and the columns G leaves alone pass through unchanged.

The image m(a_i) of a simple root is a signed sum of the two to four
columns of m that the +-1 entries of a_i pick.

Translations: an element m is a translation when m(a_i) = a_i + n_i * delta
for all i.  The defining vector alpha of the translation (with
(alpha . a_i) = n_i) lives in Q tensor QQ and is unique modulo delta; its
norm -(alpha . alpha) is a conjugation invariant used to search for
conjugating words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Iterator, Sequence

from .piclattice import (
    CARTAN,
    CARTAN_TERMS,
    DELTA_WEIGHTS,
    RANK,
    DivisorClass,
    RationalRootVector,
    anticanonical,
    exceptional,
    gram_matrix,
    H_F,
    H_G,
    intersection,
    _alpha_coords,
    surface_root,
    symmetry_root,
)

SYMBOLS = ("w0", "w1", "w2", "w3", "w4", "w5", "w6", "m0", "m1", "m2", "r", "r2")
REFLECTION_SYMBOLS = SYMBOLS[:7]
AUTOMORPHISM_SYMBOLS = SYMBOLS[7:]

#: Inverse of each generator symbol (reflections and m_i are involutions).
SYMBOL_INVERSE = {s: s for s in SYMBOLS} | {"r": "r2", "r2": "r"}

Word = tuple[str, ...]


class NotTranslation(ValueError):
    """The lattice map does not act on the symmetry roots as a translation."""


class NormMismatch(ValueError):
    """Translation norms differ, so no conjugating element can exist."""


def parse_word(symbols: Iterable[str]) -> Word:
    word = tuple(symbols)
    for s in word:
        if s not in SYMBOLS:
            raise ValueError(f"unknown generator symbol {s!r}")
    return word


_IDENTITY_ROWS = tuple(tuple(int(i == j) for j in range(RANK)) for i in range(RANK))


@dataclass(frozen=True)
class PicMap:
    """Lattice automorphism as a 10x10 integer matrix on column vectors."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != RANK or any(len(r) != RANK for r in self.rows):
            raise ValueError("PicMap requires a 10x10 integer matrix")

    @classmethod
    def identity(cls) -> "PicMap":
        return cls(_IDENTITY_ROWS)

    @classmethod
    def from_images(cls, images: Sequence[DivisorClass]) -> "PicMap":
        """Build the matrix whose j-th column is the image of the j-th basis class."""
        if len(images) != RANK:
            raise ValueError("need images of all 10 basis classes")
        return cls(tuple(tuple(images[j].coeffs[i] for j in range(RANK)) for i in range(RANK)))

    def __matmul__(self, other: "PicMap") -> "PicMap":
        cols = tuple(zip(*other.rows))
        return PicMap(tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows))

    def __call__(self, c: DivisorClass) -> DivisorClass:
        terms = [(j, x) for j, x in enumerate(c.coeffs) if x]
        return DivisorClass(tuple(sum(row[j] * x for j, x in terms) for row in self.rows))

    def inverse(self) -> "PicMap":
        # For an isometry M of the form J: M^-1 = J M^T J, and J is an involution.
        j = PicMap(gram_matrix())
        inv = j @ PicMap(tuple(zip(*self.rows))) @ j
        if inv @ self != PicMap.identity():
            raise ValueError("matrix is not an isometry; cannot invert via the form")
        return inv

    def is_cremona_isometry(self) -> bool:
        """Check M^T J M = J and that the canonical class is fixed.

        Entry (a, b) of M^T J M is the intersection number of the images of
        basis classes a and b, which reads only the nonzero entries of J.
        """
        j = gram_matrix()
        images = [DivisorClass(col) for col in zip(*self.rows)]
        if any(
            intersection(images[a], images[b]) != j[a][b]
            for a in range(RANK)
            for b in range(a, RANK)
        ):
            return False
        k_class = -1 * anticanonical()
        return self(k_class) == k_class

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def _reflection_picmap(i: int) -> PicMap:
    alpha = symmetry_root(i)
    images = []
    for k in range(RANK):
        basis = DivisorClass(tuple(1 if idx == k else 0 for idx in range(RANK)))
        images.append(basis + intersection(basis, alpha) * alpha)
    return PicMap.from_images(images)


def _automorphism_picmap(symbol: str) -> PicMap:
    e = exceptional
    hf, hg = H_F, H_G
    tables = {
        "m0": (hg, hf, e(1), e(2), e(3), e(4), e(7), e(8), e(5), e(6)),
        "m1": (
            hf,
            hf + hg - e(1) - e(2),
            hf - e(2),
            hf - e(1),
            e(7),
            e(8),
            e(5),
            e(6),
            e(3),
            e(4),
        ),
        "m2": (
            hf + hg - e(1) - e(2),
            hg,
            hg - e(2),
            hg - e(1),
            e(5),
            e(6),
            e(3),
            e(4),
            e(7),
            e(8),
        ),
        "r": (
            hg,
            hf + hg - e(1) - e(2),
            hg - e(2),
            hg - e(1),
            e(5),
            e(6),
            e(7),
            e(8),
            e(3),
            e(4),
        ),
        "r2": (
            hf + hg - e(1) - e(2),
            hf,
            hf - e(2),
            hf - e(1),
            e(7),
            e(8),
            e(3),
            e(4),
            e(5),
            e(6),
        ),
    }
    return PicMap.from_images(tables[symbol])


@lru_cache(maxsize=None)
def generator_picmap(symbol: str) -> PicMap:
    """The Picard-lattice matrix of a single generator."""
    if symbol not in SYMBOLS:
        raise ValueError(f"unknown generator symbol {symbol!r}")
    if symbol in REFLECTION_SYMBOLS:
        return _reflection_picmap(int(symbol[1]))
    return _automorphism_picmap(symbol)


_SIMPLE_ROOTS = tuple(symmetry_root(i) for i in range(7))

#: Action of each diagram automorphism on the symmetry-root indices, as a
#: mapping i -> sigma(i) with sigma(a_i) = a_sigma(i), read off the lattice
#: matrices.
ALPHA_PERMUTATIONS = {
    s: {i: _SIMPLE_ROOTS.index(generator_picmap(s)(a)) for i, a in enumerate(_SIMPLE_ROOTS)}
    for s in AUTOMORPHISM_SYMBOLS
}


#: The nonzero entries of each simple root a_i as (k, add or sub), so that
#: m(a_i) = sum_k a_i[k] col_k(m) (the entries are +-1, as in _moved_columns).
_ROOT_TERMS = tuple(tuple((k, {1: add, -1: sub}[x]) for k, x in enumerate(a.coeffs) if x) for a in _SIMPLE_ROOTS)


def simple_root_coords(m: PicMap) -> Iterator[tuple[int, ...] | None]:
    """Root coordinates of m(a_0), ..., m(a_6), each computed when asked for; None outside Q."""
    cols = tuple(zip(*m.rows))
    for terms in _ROOT_TERMS:
        image = (0,) * RANK
        for k, op in terms:
            image = map(op, image, cols[k])
        yield _alpha_coords(image)


def surface_root_permutation(m: PicMap) -> tuple[int, ...] | None:
    """The permutation (k_0, k_1, k_2) with m(d_j) = d_(k_j), or None.

    None when m does not map the three surface roots onto themselves.
    """
    roots = [surface_root(j) for j in range(3)]
    images = [m(d) for d in roots]
    if any(x not in roots for x in images):
        return None
    perm = tuple(roots.index(x) for x in images)
    return perm if len(set(perm)) == 3 else None


@lru_cache(maxsize=None)
def _moved_columns(symbol: str) -> tuple[tuple[int, int, Callable, tuple[tuple[int, Callable], ...]], ...]:
    """The columns j a generator G moves, each as (j, k, op, rest).

    Column j of M G is sum_k G[k][j] col_k(M), every G[k][j] being +-1, kept as
    op = add or sub: (k, op) is the column's first nonzero entry and rest the
    others.  A column of G equal to e_j is left out: M G keeps col_j(M).
    """
    rows = generator_picmap(symbol).rows
    sign_op = {1: add, -1: sub}  # any other entry raises KeyError here, as the table is built
    columns = ((j, tuple((k, sign_op[rows[k][j]]) for k in range(RANK) if rows[k][j])) for j in range(RANK))
    return tuple((j, *terms[0], terms[1:]) for j, terms in columns if terms != ((j, add),))


def word_to_picmap(word: Iterable[str]) -> PicMap:
    """Product of generator matrices; the rightmost symbol acts first."""
    cols = list(_IDENTITY_ROWS)  # the identity's rows are its columns
    for symbol in word:
        old = cols[:]
        for j, k, op, rest in _moved_columns(symbol):
            col = old[k] if op is add else list(map(neg, old[k]))
            for k, op in rest:
                col = list(map(op, col, old[k]))
            cols[j] = col
    return PicMap(tuple(zip(*cols)))


def invert_word(word: Iterable[str]) -> Word:
    """Reverse the word and invert each symbol."""
    return tuple(SYMBOL_INVERSE[s] for s in reversed(tuple(word)))


def translation_delta_vector(m: PicMap) -> tuple[int, ...]:
    """The vector (n_0..n_6) with m(a_i) = a_i + n_i * delta.

    Raises NotTranslation when the element has a nontrivial finite part.
    """
    ns = []
    for i, coords in enumerate(simple_root_coords(m)):
        if coords is None:
            raise NotTranslation(f"image of a_{i} is outside the symmetry lattice")
        n = coords[0] - (i == 0)  # the a_0 coefficient of delta is 1
        if any(c - (j == i) != n * w for j, (c, w) in enumerate(zip(coords, DELTA_WEIGHTS))):
            raise NotTranslation(f"image of a_{i} is not a_{i} plus a multiple of delta")
        ns.append(n)
    return tuple(ns)


def bullet(x: RationalRootVector, y: RationalRootVector) -> Fraction:
    """Intersection pairing on Q tensor QQ in simple-root coordinates."""
    ys = y.coeffs
    return sum(
        xi * sum(c * ys[j] for j, c in terms) for xi, terms in zip(x.coeffs, CARTAN_TERMS)
    )


def _det(m: list[list[int]]) -> int:
    # Laplace expansion along the first row, skipping zero entries: cheap
    # for the sparse Cartan blocks it is used on.
    if not m:
        return 1
    return sum(
        (-1) ** j * c * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, c in enumerate(m[0])
        if c
    )


@lru_cache(maxsize=None)
def _finite_cartan_adjugate() -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Determinant and integer adjugate of the finite E6 Cartan block (nodes 1-6)."""
    block = [list(row[1:]) for row in CARTAN[1:]]

    def minor(i: int, j: int) -> list[list[int]]:
        return [row[:j] + row[j + 1:] for k, row in enumerate(block) if k != i]

    n = len(block)
    adjugate = tuple(
        tuple((-1) ** (i + j) * _det(minor(j, i)) for j in range(n)) for i in range(n)
    )
    return _det(block), adjugate


def _scaled_kac_vector(m: PicMap) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(det, det alpha, n) for kac_vector's alpha, on integers."""
    ns = translation_delta_vector(m)
    det, adjugate = _finite_cartan_adjugate()
    scaled = (0,) + tuple(sum(c * n for c, n in zip(row, ns[1:])) for row in adjugate)
    if sum(w * n for w, n in zip(DELTA_WEIGHTS, ns)) != 0 or any(
        sum(c * scaled[j] for j, c in CARTAN_TERMS[i]) != det * ns[i] for i in range(7)
    ):
        raise NotTranslation("inconsistent translation vector")
    return det, scaled, ns


def kac_vector(m: PicMap) -> RationalRootVector:
    """Defining vector of a translation: (alpha . a_i) = n_i for all i.

    The solution is unique modulo delta; the representative returned has
    a0-coordinate zero, so the other six solve the finite E6 block of the
    Cartan system: the integer adjugate of that block applied to
    (n_1..n_6), divided once by its determinant 3.  Raises NotTranslation
    when m is not a translation or the system has no solution, which is
    when sum delta_i n_i != 0.
    """
    det, scaled, _ = _scaled_kac_vector(m)
    return RationalRootVector(tuple(Fraction(x, det) for x in scaled))


def translation_norm(m: PicMap) -> Fraction:
    """Conjugation-invariant norm -(alpha . alpha) = -sum_i alpha_i n_i of a translation."""
    det, scaled, ns = _scaled_kac_vector(m)
    return Fraction(-sum(map(mul, scaled, ns)), det)


def find_conjugator(src: RationalRootVector, dst: RationalRootVector, max_len: int) -> Word | None:
    """Breadth-first search for a reflection word w with w(src) = dst modulo delta.

    A vector x is tracked by its pairings n_i = (x . a_i), which fix it
    modulo delta.  A word moves them as it moves root variables, w_i adding
    c_ij n_i to each n_j, so the search runs on root_variable_evolution.
    Levels are explored in increasing length and, within a level, in
    lexicographic symbol order, so the result is deterministic.  Returns
    None when no word of length <= max_len works.  Raises NormMismatch
    immediately when the invariant norms differ.
    """
    from .periodmap import RootVariables, root_variable_evolution  # periodmap imports this module

    if -bullet(src, src) != -bullet(dst, dst):
        raise NormMismatch("translation norms differ; vectors cannot be conjugate")

    def pairings(x: RationalRootVector) -> RootVariables:
        return RootVariables(tuple(sum(c * x.coeffs[j] for j, c in terms) for terms in CARTAN_TERMS))

    target = pairings(dst)
    start = pairings(src)
    if start == target:
        return ()
    seen = {start}
    frontier: list[tuple[RootVariables, Word]] = [(start, ())]
    for _ in range(max_len):
        next_frontier: list[tuple[RootVariables, Word]] = []
        # Prepending the new symbol keeps lexicographic enumeration per level.
        for symbol in REFLECTION_SYMBOLS:
            for n, word in frontier:
                moved = root_variable_evolution((symbol,), n)
                if moved == target:
                    return (symbol,) + word
                if moved not in seen:
                    seen.add(moved)
                    next_frontier.append((moved, (symbol,) + word))
        frontier = next_frontier
    return None
