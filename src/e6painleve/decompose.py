"""Rewriting lattice automorphisms as words in the Weyl-group generators.

The algorithm tracks the images of the seven symmetry simple roots under the
running element, read off the columns of its matrix.  While some image is a
negative root, right-multiplying by the corresponding simple reflection
shortens the element (length drops exactly when the image of the reflecting
root is negative), and the image vector updates cheaply: multiplying on the
right by w_i replaces each image v_j by v_j + c_ij * v_i: with c_ii = -2 and
c_ij = +1 on the diagram's edges, v_i is negated and added to its neighbours.
The step is the fold's w_i (weylgroup._fold_steps) on one integer code
sum_i x_i 8^i per image, and the pivot is the first negative code: a group
element sends every simple root to a real root, whose entries share one sign,
so the code's sign is the root's.  Once every image is positive, the images
are simple roots (a_k ends with code 8^k), the residual permutation is matched
against the diagram automorphisms, and undoing the accumulated cancellation
gives the word, verified against the input by exact matrix equality.  This
one pass writes every word; a trace replays its pivots on the seven RootVector
images.  A map the pass or the check rejects is outside the group; its images
are reduced as root vectors (pivot: the first negative root_sign) only to name
the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import NoReturn

from .piclattice import RootVector, Sign, root_sign
from .weylgroup import (
    ALPHA_PERMUTATIONS, REFLECTION_SYMBOLS, PicMap, Word, _fold_steps, simple_root_coords, word_to_picmap
)

#: Hard cap on reduction steps; generous for every element handled here
#: (the built-in dynamics reduce in 16 steps).
MAX_REDUCTION_STEPS = 4096


class NotInGroup(ValueError):
    """The matrix is not an element of the extended affine Weyl group."""


class NoAutomorphismMatch(ValueError):
    """Simple-root images do not realize a diagram automorphism."""


SimpleRootImages = tuple[RootVector, ...]


@dataclass(frozen=True)
class ReductionStep:
    """One reduction step: the chosen reflection index and the images after it."""

    index: int
    images: SimpleRootImages


#: The symbol of each permutation (sigma(0), ..., sigma(6)) of the simple roots that the group realizes.
_AUTOMORPHISMS = {tuple(range(7)): ""} | {tuple(map(sigma.get, range(7))): s for s, sigma in ALPHA_PERMUTATIONS.items()}
_CODE_WEIGHTS = tuple(8**i for i in range(7))
#: The residual letters of each permutation sigma in _AUTOMORPHISMS, keyed by the final codes 8^sigma(i).
_RESIDUALS = {tuple(_CODE_WEIGHTS[k] for k in sigma): (s,) if s else () for sigma, s in _AUTOMORPHISMS.items()}


def match_automorphism(images: SimpleRootImages) -> str:
    """Identify the diagram automorphism realized by simple-root images.

    Returns the generator symbol, or the empty string for the identity.
    Raises NoAutomorphismMatch when the images are not the permutation of
    simple roots induced by any diagram automorphism.
    """
    perm = []
    for i, img in enumerate(images):
        if sorted(img.coeffs) != [0] * 6 + [1]:
            raise NoAutomorphismMatch(f"image of a_{i} is not a simple root")
        perm.append(img.coeffs.index(1))
    if len(set(perm)) != 7:
        raise NoAutomorphismMatch("images are not a permutation of the simple roots")
    if tuple(perm) not in _AUTOMORPHISMS:
        raise NoAutomorphismMatch("permutation is not a diagram automorphism")
    return _AUTOMORPHISMS[tuple(perm)]


def _root_images(m: PicMap) -> list[tuple[int, ...]]:
    images = list(simple_root_coords(m))
    if None in images:
        raise NotInGroup("map does not preserve the symmetry sublattice")
    return images


def simple_root_images(m: PicMap) -> SimpleRootImages:
    """Images of a0..a6 under m, in symmetry-root coordinates."""
    return tuple(map(RootVector, _root_images(m)))


def _code_reduction(images: list[tuple[int, ...]]) -> tuple[Word | None, list[int]]:
    """decompose's word, None where that fails, and its pivots, reduced on the codes of the images."""
    codes, steps = tuple(sum(map(mul, _CODE_WEIGHTS, v)) for v in images), _fold_steps()
    cancellation: list[int] = []
    for _ in range(MAX_REDUCTION_STEPS):
        for pivot, p in enumerate(codes):
            if p < 0:
                break
        else:
            break
        codes = steps[REFLECTION_SYMBOLS[pivot]](codes)  # the fold's w_pivot: v_j gains c_ij v_pivot
        cancellation.append(pivot)
    else:
        return None, cancellation
    residual = _RESIDUALS.get(codes)
    word = None if residual is None else residual + tuple(REFLECTION_SYMBOLS[i] for i in reversed(cancellation))
    return word, cancellation


def _reject(images: list[tuple[int, ...]]) -> NoReturn:
    """Name why a map whose code reduction fails is outside the group, reducing its seven root vectors."""
    vectors, steps = tuple(map(RootVector, images)), _fold_steps()
    for _ in range(MAX_REDUCTION_STEPS):
        pivot = next((i for i, v in enumerate(vectors) if root_sign(v) is Sign.NEGATIVE), None)
        if pivot is None:
            break
        vectors = steps[REFLECTION_SYMBOLS[pivot]](vectors)
    else:
        raise NotInGroup("reduction did not terminate; map is outside the group")
    try:
        match_automorphism(vectors)
    except NoAutomorphismMatch as exc:
        raise NotInGroup(str(exc)) from exc
    raise NotInGroup("reduced word does not reproduce the map on the full lattice")


def decompose(m: PicMap, trace: bool = False):
    """Express a lattice map as a word in the group generators.

    Returns the word, or a (word, steps) pair when trace is requested.  The
    word reproduces m exactly (checked by matrix equality).  Raises
    NotInGroup for maps outside the extended affine Weyl group.
    """
    images = _root_images(m)
    word, pivots = _code_reduction(images)
    if word is None or word_to_picmap(word) != m:
        _reject(images)
    if not trace:
        return word
    vectors, fold_steps, steps = tuple(map(RootVector, images)), _fold_steps(), []
    for pivot in pivots:
        vectors = fold_steps[REFLECTION_SYMBOLS[pivot]](vectors)
        steps.append(ReductionStep(pivot, vectors))
    return word, tuple(steps)
