"""Decompose pairs of rotations, classify the blocks, decide isomorphism.

A rotation here is an orthogonal operator that turns every vector by
one fixed angle.  Any pair of rotations on a finite-dimensional
Euclidean space splits into jointly invariant blocks of dimension 1, 2
or 4; each irreducible block belongs to one of five canonical families,
and two pairs are isomorphic exactly when their multisets of canonical
forms agree.  This package computes the decomposition, the forms, and
the isomorphism test, and ships a CLI over JSON pair documents.
"""

from .antilinear import AntilinearOp, antilinear_invariant_line
from .classify import (
    ClassLabel,
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    classify,
    classify_block,
    isomorphic,
    labels_match,
    orthogonalize_intertwiner,
    realize,
    t_theta,
    theta_invariant,
)
from .decompose import (
    InvariantBlock,
    InvariantDecomposition,
    decompose,
    invariance_residual,
    is_irreducible,
    two_plane_exists,
)
from .errors import (
    BadAngle,
    BadDimension,
    BadParameter,
    NotARotation,
    NotConstant,
    NotIntertwiner,
    NotIrreducible,
    NotOrthogonal,
    NotOrthogonalPair,
    NotProper,
    NumericalError,
    NumericalFailure,
    RotPairError,
    ScaleNotConstant,
    ValidationError,
)
from .linalg import DEFAULT_TOL, Tolerance, max_abs
from .orthogonal import (
    NormalForm,
    Rotation,
    RotationKind,
    as_rotation,
    orthogonal_normal_form,
    rho,
    rot2,
    unrho,
)
from .workbench import (
    PairDocument,
    build_report,
    form_from_dict,
    form_to_dict,
    generate_pair,
    generate_rotation,
    haar_orthogonal,
    label_to_list,
    load_pair,
    oracle_two_plane_search,
    pair_from_json_dict,
)

__version__ = "0.1.0"
