"""The extended affine Weyl group of type E6^(1) acting on the Picard lattice.

Generators are the seven simple reflections w0..w6 in the symmetry roots,

    w_i(C) = C + (C.a_i) a_i,

together with the five nontrivial diagram automorphisms m0, m1, m2, r, r2
(the dihedral group of the triangle of surface roots), generated by m0 and
r: their matrices are tables of basis images, and m1 = m0 r, m2 = r m0 and
r2 = r r are products.  Every generator is a Cremona isometry: it preserves
the intersection form and fixes the canonical class.  Words are finite
sequences of generator symbols; the sequence (g1, g2, ..., gk) denotes the
composition g1 o g2 o ... o gk, with gk applied first, so that
word_to_picmap is the left-to-right matrix product.  That
product is kept as the 10 integer columns of the running matrix M: a letter
G acts on the right as a column operation, column j of M G being
sum_k G[k][j] col_k(M), which adds or subtracts at most four old columns.
Each generator's step is straight-line code: it passes through the columns
G leaves alone or permutes, and builds the others entry by entry from the
unpacked entries of the columns they read.  All twelve are compiled together
on the first product, and a product reads each letter's step from their dict.

The image m(a_i) of a simple root (or d_j of a surface root) is a signed
sum of the columns of m that its +-1 entries pick, read for all seven (three)
at once by straight-line code on the rows of m, compiled on first use.
simple_root_coords reads them once per matrix and keeps them on it.

fold_root_values is the group's one action on root coordinates: a word
moves seven integer values, a reflection adding multiples of one value to
its neighbours and an automorphism permuting indices (ALPHA_PERMUTATIONS,
read off the matrices).  Each generator's move (_fold_moves) is one
straight-line step 7 values -> 7 values, all twelve compiled together on the
first fold.  The period map moves root variables with it, find_conjugator
the pairings of a vector with the simple roots, and decompose's reduction
its codes (the same moves as the branches of one compiled loop) or, for
traces and failures, its seven RootVector images.

Translations: an element m is a translation when m(a_i) = a_i + n_i * delta
for all i.  The defining vector alpha of the translation (with
(alpha . a_i) = n_i) lives in Q tensor QQ and is unique modulo delta; its
norm -(alpha . alpha) is a conjugation invariant used to search for
conjugating words.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg

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
    _compile,
    _Value,
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
_CANONICAL = tuple(-x for x in anticanonical().coeffs)


class PicMap(_Value):
    """Lattice automorphism as a 10x10 integer matrix on column vectors (rows, a tuple of ten integer tuples)."""

    _fields = ("rows",)
    #: simple_root_coords' memo of the images of the simple roots.
    _root_coords = None

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
        """Check M^T J M = J, entry (a, b) being col_a . J col_b with J c = (c1, c0, -c2, ..., -c9), and M K = K."""
        j, cols = gram_matrix(), tuple(zip(*self.rows))
        j_cols = [(c[1], c[0], *map(neg, c[2:])) for c in cols]
        if any(sum(map(mul, cols[a], j_cols[b])) != j[a][b] for a in range(RANK) for b in range(a, RANK)):
            return False
        return tuple(sum(map(mul, row, _CANONICAL)) for row in self.rows) == _CANONICAL

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def _reflection_picmap(i: int) -> PicMap:
    alpha = symmetry_root(i)
    return PicMap.from_images([e + intersection(e, alpha) * alpha for e in map(DivisorClass, _IDENTITY_ROWS)])


#: The automorphisms other than m0 and r, as products (the first factor acts last).
_AUTOMORPHISM_PRODUCTS = {"m1": ("m0", "r"), "m2": ("r", "m0"), "r2": ("r", "r")}


def _automorphism_picmap(symbol: str) -> PicMap:
    if symbol in _AUTOMORPHISM_PRODUCTS:
        first, second = _AUTOMORPHISM_PRODUCTS[symbol]
        return generator_picmap(first) @ generator_picmap(second)
    e = exceptional
    hf, hg = H_F, H_G
    tables = {
        "m0": (hg, hf, e(1), e(2), e(3), e(4), e(7), e(8), e(5), e(6)),
        "r": (hg, hf + hg - e(1) - e(2), hg - e(2), hg - e(1), e(5), e(6), e(7), e(8), e(3), e(4)),
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
#: The root coordinates of a_0, ..., a_6.
_ROOT_UNITS = tuple(tuple(int(i == j) for j in range(7)) for i in range(7))

#: Action of each diagram automorphism on the symmetry-root indices, as a
#: mapping i -> sigma(i) with sigma(a_i) = a_sigma(i), read off the lattice
#: matrices.
ALPHA_PERMUTATIONS = {
    s: {i: _SIMPLE_ROOTS.index(generator_picmap(s)(a)) for i, a in enumerate(_SIMPLE_ROOTS)}
    for s in AUTOMORPHISM_SYMBOLS
}


#: The nonzero entries (k, +-1) of each simple root a_i, then of each surface root d_j, so that
#: m(c) = sum_k c[k] col_k(m).
_ROOT_TERMS, _SURFACE_TERMS = (
    tuple(tuple((k, x) for k, x in enumerate(c.coeffs) if x) for c in classes)
    for classes in (_SIMPLE_ROOTS, map(surface_root, range(3)))
)


@lru_cache(maxsize=None)
def _class_images(surface: bool) -> Callable[[tuple], tuple[tuple[int, ...], ...]]:
    """The images m(c) of the simple roots (of the surface roots if surface) as straight-line code from the
    rows of m: entry i of an image is the signed sum of the entries x{i}_{k} of row i that its terms pick.
    Every entry is +-1 (any other raises KeyError), as in _column_step."""
    sign = {1: "+", -1: "-"}
    unpack = ", ".join(f"({', '.join(f'x{i}_{k}' for k in range(RANK))})" for i in range(RANK))
    images = (
        ", ".join("".join(f"{sign[x]}x{i}_{k}" for k, x in terms).lstrip("+") for i in range(RANK))
        for terms in (_SURFACE_TERMS if surface else _ROOT_TERMS)
    )
    return _compile("rows", f"{unpack} = rows", f"return {', '.join(f'({image})' for image in images)}")


def simple_root_coords(m: PicMap) -> tuple[tuple[int, ...] | None, ...]:
    """Root coordinates of m(a_0), ..., m(a_6), None outside Q; computed once per matrix and kept on it."""
    coords = m._root_coords
    if coords is None:
        coords = tuple(map(_alpha_coords, _class_images(False)(m.rows)))
        object.__setattr__(m, "_root_coords", coords)  # not a field: equality, hash and repr ignore it
    return coords


def surface_root_permutation(m: PicMap) -> tuple[int, ...] | None:
    """The permutation (k_0, k_1, k_2) with m(d_j) = d_(k_j), or None.

    None when m does not map the three surface roots onto themselves.
    """
    roots = [surface_root(j).coeffs for j in range(3)]
    images = _class_images(True)(m.rows)
    if any(x not in roots for x in images):
        return None
    perm = tuple(roots.index(x) for x in images)
    return perm if len(set(perm)) == 3 else None


def _fold_moves(symbol: str) -> dict[int, str]:
    """A generator's action on seven root values v0..v6, as the new expression of each value it moves: w_i
    gives -v_i at i and v_j + v_i at each neighbour j, an automorphism sigma moves v_i to sigma(i)."""
    if symbol in REFLECTION_SYMBOLS:
        i = int(symbol[1])
        # any entry other than -2 or 1 raises KeyError, as in _column_step
        return {j: {-2: f"-v{i}", 1: f"v{j} + v{i}"}[c] for j, c in CARTAN_TERMS[i]}
    return {j: f"v{i}" for i, j in ALPHA_PERMUTATIONS[symbol].items() if i != j}


@lru_cache(maxsize=None)
def _fold_steps() -> dict[str, Callable[[tuple], tuple]]:
    """Each generator's _fold_moves as straight-line code from seven root values to seven."""
    values, steps = ", ".join(f"v{i}" for i in range(7)), {}
    for symbol in SYMBOLS:
        moves = _fold_moves(symbol)
        steps[symbol] = _compile("v", f"{values} = v", f"return {', '.join(moves.get(i, f'v{i}') for i in range(7))}")
    return steps


def fold_root_values(word: Iterable[str], values: Sequence[int]) -> list[int]:
    """Seven root values (integers or Fractions) after applying a word of generators.

    Letters act right to left, each as its compiled step (_fold_steps), an
    integer matrix, so the fold is exact on any common scaling of the values.
    Raises ValueError for an unknown symbol, as parse_word, or unless there
    are seven values.
    """
    word, values = tuple(word), tuple(values)
    if len(values) != 7:
        raise ValueError(f"expected 7 root values, got {len(values)}")
    steps = _fold_steps()
    try:
        for symbol in reversed(word):
            values = steps[symbol](values)
    except (KeyError, TypeError):
        parse_word(word)  # names the first unknown symbol
        raise
    return list(values)


def _column_step(symbol: str) -> Callable[..., tuple[tuple[int, ...], ...]]:
    """Column j of M G, sum_k G[k][j] col_k(M), as straight-line code from the ten columns of M to
    those of M G.  Every G[k][j] is +-1 (any other entry raises KeyError): a column of G equal to
    e_k passes col_k(M) through, any other is ten signed sums of entries x{k}_{i} of the columns it reads."""
    rows, cols, read = generator_picmap(symbol).rows, [], set()
    for j in range(RANK):
        terms = [(k, {1: "+", -1: "-"}[rows[k][j]]) for k in range(RANK) if rows[k][j]]
        if len(terms) == 1 and terms[0][1] == "+":
            cols.append(f"c{terms[0][0]}")
            continue
        read.update(k for k, _ in terms)
        entries = ("".join(f"{sign}x{k}_{i}" for k, sign in terms).lstrip("+") for i in range(RANK))
        cols.append(f"({', '.join(entries)})")
    unpack = (f"{', '.join(f'x{k}_{i}' for i in range(RANK))} = c{k}" for k in sorted(read))
    return _compile(", ".join(f"c{j}" for j in range(RANK)), *unpack, f"return {', '.join(cols)}")


@lru_cache(maxsize=None)
def _column_steps() -> dict[str, Callable[..., tuple[tuple[int, ...], ...]]]:
    """Every generator's _column_step, compiled together on the first product."""
    return {symbol: _column_step(symbol) for symbol in SYMBOLS}


def word_to_picmap(word: Iterable[str]) -> PicMap:
    """Product of generator matrices; the rightmost symbol acts first.

    Raises ValueError for an unknown symbol, as parse_word.
    """
    cols, steps = _IDENTITY_ROWS, _column_steps()  # the identity's rows are its columns
    try:
        for symbol in word:
            cols = steps[symbol](*cols)
    except KeyError:
        parse_word((symbol,))  # names the unknown symbol
        raise
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
        if coords != tuple(map(add, _ROOT_UNITS[i], map(n.__mul__, DELTA_WEIGHTS))):
            raise NotTranslation(f"image of a_{i} is not a_{i} plus a multiple of delta")
        ns.append(n)
    return tuple(ns)


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
    """(det, det alpha, n) for kac_vector's alpha, on integers.

    The adjugate solves rows 1-6 of the Cartan system exactly, and row 0
    then holds because CARTAN delta = 0 (CARTAN is symmetric): exactly when
    sum delta_i n_i = 0, the one test made here.
    """
    ns = translation_delta_vector(m)
    if sum(map(mul, DELTA_WEIGHTS, ns)) != 0:
        raise NotTranslation("inconsistent translation vector")
    det, adjugate = _finite_cartan_adjugate()
    return det, (0,) + tuple(sum(map(mul, row, ns[1:])) for row in adjugate), ns


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
    modulo delta.  A word moves them as it moves root values, w_i adding
    c_ij n_i to each n_j, so the search folds each letter with
    fold_root_values on the pairings of src and dst, scaled to integers by
    one common lcm of their denominators.  Levels are explored in increasing
    length and, within a level, in lexicographic symbol order, so the
    result is deterministic.  Returns None when no word of length <= max_len
    works.  Raises NormMismatch immediately when the invariant norms
    -(x . x) = -sum_i x_i n_i differ.
    """
    pairings = [[sum(c * x.coeffs[j] for j, c in terms) for terms in CARTAN_TERMS] for x in (src, dst)]
    if sum(map(mul, src.coeffs, pairings[0])) != sum(map(mul, dst.coeffs, pairings[1])):
        raise NormMismatch("translation norms differ; vectors cannot be conjugate")
    scale = math.lcm(*(n.denominator for ns in pairings for n in ns))
    start, target = (tuple(n.numerator * (scale // n.denominator) for n in ns) for ns in pairings)
    if start == target:
        return ()
    seen = {start}
    frontier: list[tuple[tuple[int, ...], Word]] = [(start, ())]
    for _ in range(max_len):
        next_frontier: list[tuple[tuple[int, ...], Word]] = []
        # Prepending the new symbol keeps lexicographic enumeration per level.
        for symbol in REFLECTION_SYMBOLS:
            for n, word in frontier:
                moved = tuple(fold_root_values((symbol,), n))
                if moved == target:
                    return (symbol,) + word
                if moved not in seen:
                    seen.add(moved)
                    next_frontier.append((moved, (symbol,) + word))
        frontier = next_frontier
    return None
