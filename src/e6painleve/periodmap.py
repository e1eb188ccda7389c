"""The period map: root variables from parameters and their evolution.

The period map is a linear functional on the symmetry sublattice, fixed by
residue computations on the components of the anticanonical divisor; its
values on the simple roots are the root variables

    a0 = b4 - b3,  a1 = b3 - b2,  a2 = b2 - b1,  a3 = b1 + b7,
    a4 = b8 - b7,  a5 = b1 + b5,  a6 = b6 - b5.

Together with b4 this is a linear bijection with the parameter vector, which
gives the inverse parameterization.  A word w of generators moves the root
variables by the *inverse* of its action on the roots: the new value of a_i
is the period of w^{-1}(a_i), expanded linearly in the old values.  No
normalization is imposed on the period of delta (the parameter sum); it is
carried exactly.

Every generator fixes b4, so its action on the parameters is induced through
the period map: evolve the root variables, then invert the bijection with
the same b4.  birational.param_rows reads that action off on integers: the
root_values of each unit vector, folded by the generator, then param_values
(the inverse, which params_from_root_variables wraps) with the same b4.

root_variable_evolution scales the seven values to integers over their
common denominator (scale_to_integers) and folds the word on those integers
with the Weyl group's fold on root coordinates (weylgroup.fold_root_values).
Every letter acts by an integer matrix, so one division at the end gives
the exact result.  The fold, root_values, param_values and delta_period
take integers as well as rationals, so the sampled checks of verify run on
one integer scaling per draw.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .piclattice import DELTA_WEIGHTS, _RationalVector
from .weylgroup import fold_root_values


class ParamVector(_RationalVector):
    """The eight blowup-position parameters (b1, ..., b8), exact rationals."""

    _fields, length, noun = ("b",), 8, "parameters"

    def chi_delta(self) -> Fraction:
        """The parameter sum b1 + ... + b8 (value of the period map on delta)."""
        return sum(self.b, Fraction(0))


class RootVariables(_RationalVector):
    """The seven root variables (a0, ..., a6), exact rationals."""

    _fields, length, noun = ("a",), 7, "root variables"

    def chi_delta(self) -> Fraction:
        """Period of the null root: a0 + 2a1 + 3a2 + 2a3 + a4 + 2a5 + a6."""
        return delta_period(self.a)


def scale_to_integers(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(L, L x): rationals scaled to integers by the lcm L of their denominators."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, tuple([x.numerator * (scale // x.denominator) for x in values])


def delta_period(a: Sequence) -> Fraction | int:
    """a0 + 2a1 + 3a2 + 2a3 + a4 + 2a5 + a6 of seven root values."""
    return sum(w * x for w, x in zip(DELTA_WEIGHTS, a))


def root_values(b: Sequence) -> tuple:
    """The seven root values of eight parameter values (integers or rationals)."""
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (b4 - b3, b3 - b2, b2 - b1, b1 + b7, b8 - b7, b1 + b5, b6 - b5)


def root_variables(b: ParamVector) -> RootVariables:
    """Root variables of a parameter vector."""
    return RootVariables(root_values(b.b))


def param_values(a: Sequence, b4) -> tuple:
    """The eight parameter values with root values a and the stated b4 (integers or rationals)."""
    a0, a1, a2, a3, a4, a5, a6 = a
    low = a0 + a1 + a2
    return (b4 - low, b4 - a0 - a1, b4 - a0, b4, low + a5 - b4, low + a5 + a6 - b4, low + a3 - b4, low + a3 + a4 - b4)


def params_from_root_variables(a: RootVariables, b4) -> ParamVector:
    """Exact right-inverse of root_variables with the stated b4."""
    return ParamVector(param_values(a.a, Fraction(b4)))


def root_variable_evolution(word: Iterable[str], a: RootVariables) -> RootVariables:
    """Root variables after applying a word of generators.

    The new a_i is the period of the image of a_i under the inverse word:
    fold_root_values on the values scaled to integers, divided back once.
    """
    den, values = scale_to_integers(a.a)
    return RootVariables(tuple(Fraction(x, den) for x in fold_root_values(word, values)))
