"""Exact geometric machinery for the additive discrete Painleve family on
the 8-point blowup of P1 x P1 with affine E6 Weyl symmetry.

The package provides the Picard lattice with its intersection form and root
bases, the extended affine Weyl group as exact lattice automorphisms and as
birational maps of the parametrized family, the period map and root-variable
dynamics, word decomposition of translation elements, and two built-in
dynamics (a QRT deautonomization and an elementary Schlesinger
transformation) whose equivalence is verified pointwise in exact arithmetic.
"""

from .piclattice import (
    DELTA_WEIGHTS,
    DivisorClass,
    NotInSymmetryLattice,
    RationalRootVector,
    RootVector,
    Sign,
    anticanonical,
    cartan_matrix,
    exceptional,
    from_alpha_coords,
    intersection,
    root_sign,
    surface_root,
    symmetry_root,
    to_alpha_coords,
)
from .weylgroup import (
    AUTOMORPHISM_SYMBOLS,
    NormMismatch,
    NotTranslation,
    PicMap,
    REFLECTION_SYMBOLS,
    SYMBOLS,
    Word,
    find_conjugator,
    generator_picmap,
    invert_word,
    kac_vector,
    parse_word,
    translation_delta_vector,
    translation_norm,
    word_to_picmap,
)
from .decompose import NotInGroup, decompose, match_automorphism
from .birational import (
    BirationalStep,
    Indeterminate,
    MapComparison,
    ProjectiveCoord,
    SurfacePoint,
    TooManyDegenerateSamples,
    eval_step,
    eval_word,
    generator_step,
    maps_equal,
    word_map,
)
from .periodmap import (
    ParamVector,
    RootVariables,
    params_from_root_variables,
    root_variable_evolution,
    root_variables,
)
from .models import (
    CONJUGATOR_WORD,
    PHI_PIC_ACTION,
    PHI_WORD,
    PSI_PIC_ACTION,
    PSI_WORD,
    SchlesingerParams,
    b_from_schlesinger_chart,
    b_from_schlesinger_matched,
    change_of_variables,
    change_of_variables_inverse,
    orbit,
    phi_orbit,
    phi_step,
    psi_orbit,
    psi_step,
    verify_equivalence,
)

__version__ = "0.1.0"
