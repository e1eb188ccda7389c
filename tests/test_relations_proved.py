"""Symbolic proofs of the generator relations and of the coordinate forms.

Each generator's coordinate forms (evaluated by the library's own Form code
on sympy symbols) and parameter rows are composed as rational maps of
(b1..b8; f, g).  A relation holds when both sides cancel to the same map,
which proves what verify's birational suite only samples.
"""

import pytest
import sympy

from e6painleve.birational import generator_step, param_rows
from e6painleve.piclattice import E6_EDGES
from e6painleve.weylgroup import REFLECTION_SYMBOLS, SYMBOLS

from oracles import coord_oracle

F, G, L = sympy.symbols("f g L")
B = sympy.symbols("b1:9")
IDENTITY = (B, F, G)


def _coordinate(form, f, g, b):
    """A Form at rational (f, g) as one cancelled rational function."""
    num, den = form(sympy.fraction(f), sympy.fraction(g), b)
    return sympy.cancel(num / den)


def _apply(word, state=IDENTITY):
    """The map of a word (rightmost symbol first) applied to a symbolic state."""
    b, f, g = state
    for symbol in reversed(word):
        step = generator_step(symbol)
        f, g = _coordinate(step.coord_f, f, g, b), _coordinate(step.coord_g, f, g, b)
        b = tuple(sum(c * b[j] for j, c in row) for row in param_rows(symbol))
    return b, f, g


def _same_map(lhs, rhs):
    return all(sympy.expand(x - y) == 0 for x, y in zip(lhs[0], rhs[0])) and all(
        sympy.cancel(x - y) == 0 for x, y in zip(lhs[1:], rhs[1:])
    )


RELATIONS = (
    [(f"{s}^2 = 1", (s, s), ()) for s in (*REFLECTION_SYMBOLS, "m0", "m1", "m2")]
    + [
        ("r^3 = 1", ("r", "r", "r"), ()),
        ("r^2 = r2", ("r", "r"), ("r2",)),
        ("w3 w5 = w5 w3", ("w3", "w5"), ("w5", "w3")),
        ("m1 w0 m1 = w4", ("m1", "w0", "m1"), ("w4",)),
    ]
    + [
        (f"braid w{i} w{j}", (f"w{i}", f"w{j}", f"w{i}"), (f"w{j}", f"w{i}", f"w{j}"))
        for i, j in sorted(E6_EDGES)
    ]
)


def test_relation_list_is_complete():
    assert len(RELATIONS) == 20
    assert len(E6_EDGES) == 6


@pytest.mark.parametrize("name, lhs, rhs", RELATIONS, ids=[r[0] for r in RELATIONS])
def test_relation_is_proved(name, lhs, rhs):
    assert _same_map(_apply(lhs), _apply(rhs)), name


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_forms_equal_oracle_formulas(symbol):
    step = generator_step(symbol)
    expected = coord_oracle(symbol, B, F, G)
    for form, formula in zip((step.coord_f, step.coord_g), expected):
        assert sympy.cancel(_coordinate(form, F, G, B) - formula) == 0, str(form)


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_forms_are_weighted_homogeneous(symbol):
    # Scaling f, g and every b_k by L scales the image by L: the reason a
    # word can run on the integers L f, L g, L b.
    step = generator_step(symbol)
    scaled = tuple(L * x for x in B)
    for form in (step.coord_f, step.coord_g):
        image = _coordinate(form, L * F, L * G, scaled)
        assert sympy.cancel(image - L * _coordinate(form, F, G, B)) == 0, str(form)
