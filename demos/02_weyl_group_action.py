#!/usr/bin/env python3
"""The extended affine Weyl group in both of its guises.

Every generator acts in two compatible ways: as an exact integer matrix on
the Picard lattice, and as a birational map of the parametrized family
(moving the eight parameters linearly and the point (f, g) rationally).
The period map ties the two together: root variables computed from the
parameters evolve exactly as the inverse lattice action predicts.
"""

from e6painleve import (
    ParamVector,
    ProjectiveCoord,
    SurfacePoint,
    eval_word,
    generator_picmap,
    generator_step,
    root_variable_evolution,
    root_variables,
    word_to_picmap,
)
from e6painleve.piclattice import H_G
from e6painleve.weylgroup import PicMap

print("A reflection as a lattice matrix")
w3 = generator_picmap("w3")
print("  w3(Hg) =", w3(H_G).coeffs, " (a (1,1)-class through two of the points)")
print("  w3 is an involution:", w3 @ w3 == PicMap.identity())

print("\nThe same reflection as a birational map")
b = ParamVector.of(1, 9, 4, 7, 5, 6, 2, 8)
p = SurfacePoint.affine(2, 3)
step = generator_step("w3")
print("  coordinate maps (num/den forms on P1 x P1):  f ->", step.coord_f, ",  g ->", step.coord_g)
new_b, new_p = eval_word(("w3",), b, p)
print("  (f, g) = (2, 3)  ->  ", (str(new_p.f), str(new_p.g)))
_, at_infinity = eval_word(("w3",), b, SurfacePoint(ProjectiveCoord.infinity(), ProjectiveCoord.finite(3)))
print("  (f, g) = (inf, 3)  ->", (str(at_infinity.f), str(at_infinity.g)), " (g + b1 + b7 on the line f = inf)")
print("  parameters:", [str(x) for x in new_b.b])

print("\nGroup relations hold pointwise, not just on matrices")
braid_lhs = eval_word(("w2", "w3", "w2"), b, p)
braid_rhs = eval_word(("w3", "w2", "w3"), b, p)
print("  braid relation at a sample point:", braid_lhs == braid_rhs)
triple_r = eval_word(("r", "r", "r"), b, p)
print("  r applied three times is the identity:", triple_r == (b, p))

print("\nGauge normalization: every generator fixes b4 and the parameter sum")
for symbol in ("w0", "w3", "m1", "r"):
    moved = generator_step(symbol).apply_params(b)
    print(f"  {symbol}: b4 {b.b[3]} -> {moved.b[3]},  sum {b.chi_delta()} -> {moved.chi_delta()}")

print("\nRoot variables evolve by the inverse lattice action")
a = root_variables(b)
print("  a =", [str(x) for x in a.a])
word = ("r", "w5", "w3")
predicted = root_variable_evolution(word, a)
moved_b, _ = eval_word(word, b, p)
print("  prediction matches the parameter map:", root_variables(moved_b) == predicted)
print("  chi(delta) is invariant:", predicted.chi_delta() == a.chi_delta())
print("  (word as a matrix is a Cremona isometry:",
      word_to_picmap(word).is_cremona_isometry(), ")")
