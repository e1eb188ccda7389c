"""Rewriting lattice automorphisms as words in the Weyl-group generators.

The algorithm tracks the images of the seven symmetry simple roots under the
running element, read off its matrix once (simple_root_coords keeps them on
the matrix).  While some image is a negative root, right-multiplying by the
corresponding simple reflection shortens the element (length drops exactly
when the image of the reflecting root is negative), and the image vector
updates cheaply: multiplying on the right by w_i replaces each image v_j by
v_j + c_ij * v_i: with c_ii = -2 and c_ij = +1 on the diagram's edges, v_i
is negated and added to its neighbours.  The step is the fold's w_i
(weylgroup._fold_moves) on one integer code sum_i x_i 8^i per image, and the
pivot is the first negative code: a group element sends every
simple root to a real root, whose entries share one sign, so the code's sign
is the root's.  The reduction is one function compiled on first use: it
computes the seven codes from the images, then loops on an if/elif chain
over the codes held in locals.  Once every image is positive, the images
are simple roots (a_k ends with code 8^k), the residual permutation is
matched against the diagram automorphisms, and undoing the accumulated
cancellation gives the word, verified against the input by exact matrix
equality.  This one pass writes every word; a trace replays its pivots on the
seven RootVector images.  A map the pass or the check rejects is outside the
group; its images are reduced as root vectors (pivot: the first negative
root_sign) only to name the failure.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .piclattice import RootVector, Sign, _compile, _Value, root_sign
from .weylgroup import (
    ALPHA_PERMUTATIONS, REFLECTION_SYMBOLS, PicMap, Word, _fold_moves, _fold_steps, simple_root_coords, word_to_picmap
)

#: Hard cap on reduction steps; generous for every element handled here
#: (the built-in dynamics reduce in 16 steps).
MAX_REDUCTION_STEPS = 4096


class NotInGroup(ValueError):
    """The matrix is not an element of the extended affine Weyl group."""


class NoAutomorphismMatch(ValueError):
    """Simple-root images do not realize a diagram automorphism."""


SimpleRootImages = tuple[RootVector, ...]


class ReductionStep(_Value):
    """One reduction step: the chosen reflection index and the images after it (SimpleRootImages)."""

    _fields = ("index", "images")


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


def _root_images(m: PicMap) -> tuple[tuple[int, ...], ...]:
    images = simple_root_coords(m)
    if None in images:
        raise NotInGroup("map does not preserve the symmetry sublattice")
    return images


def simple_root_images(m: PicMap) -> SimpleRootImages:
    """Images of a0..a6 under m, in symmetry-root coordinates."""
    return tuple(map(RootVector, _root_images(m)))


@lru_cache(maxsize=None)
def _reduce_codes() -> Callable[[tuple], tuple[tuple[int, ...], list[int]]]:
    """The code reduction compiled on first use: the seven images in, the final codes and the pivots out.

    Image i enters as its code v_i = sum_k 8^k x_k.  Each pass right-multiplies by w_i for the first negative
    code i, as the fold's _fold_moves for w_i: v_j gains c_ij v_i.  It stops when no code is negative or after
    MAX_REDUCTION_STEPS pivots.
    """
    unpack = ", ".join(f"({', '.join(f'x{i}_{k}' for k in range(7))})" for i in range(7))
    codes = (
        f"v{i} = x{i}_0 + {' + '.join(f'{w} * x{i}_{k}' for k, w in enumerate(_CODE_WEIGHTS) if k)}" for i in range(7)
    )
    branches = []
    for i, symbol in enumerate(REFLECTION_SYMBOLS):
        moves = _fold_moves(symbol)
        branches += [
            f"    {'el' if i else ''}if v{i} < 0:",
            f"        {', '.join(f'v{j}' for j in moves)} = {', '.join(moves.values())}",
            f"        push({i})",
        ]
    values = ", ".join(f"v{i}" for i in range(7))
    return _compile(
        "images", f"{unpack} = images", *codes, "pivots = []", "push = pivots.append",
        f"for _ in range({MAX_REDUCTION_STEPS}):", *branches, "    else:", "        break",
        f"return ({values}), pivots",
    )


def _code_reduction(images: tuple[tuple[int, ...], ...]) -> tuple[Word | None, list[int]]:
    """decompose's word, None where that fails, and its pivots, reduced on the codes of the images."""
    codes, pivots = _reduce_codes()(images)
    residual = _RESIDUALS.get(codes)  # None unless every code is positive and names an automorphism
    word = None if residual is None else residual + tuple(map(REFLECTION_SYMBOLS.__getitem__, reversed(pivots)))
    return word, pivots


def _reject(images: tuple[tuple[int, ...], ...]):
    """Raise NotInGroup naming why a map whose code reduction fails is outside the group, from its root vectors."""
    vectors, steps = tuple(map(RootVector, images)), _fold_steps()
    for count in range(MAX_REDUCTION_STEPS + 1):
        pivot = next((i for i, v in enumerate(vectors) if root_sign(v) is Sign.NEGATIVE), None)
        if pivot is None:
            break
        if count == MAX_REDUCTION_STEPS:
            raise NotInGroup(
                f"reduction did not finish within {MAX_REDUCTION_STEPS} steps; "
                f"map is outside the group or longer than {MAX_REDUCTION_STEPS} letters"
            )
        vectors = steps[REFLECTION_SYMBOLS[pivot]](vectors)
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
