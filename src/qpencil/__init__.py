"""Exact pencils of two quadrics: discriminants, real isotopy classes,
line counts over finite fields, projections, and the surrounding bookkeeping.
"""

from .circle import (
    IndexCircle,
    OddDecomposition,
    RealVerdict,
    decomposition,
    enumerate_classes,
    index_circle,
    pencil_decomposition,
    real_line_exists,
    real_verdict,
)
from .errors import InternalCheckError, PrecondError, QPencilError
from .fields import QQ, PrimeField, Rationals
from .fqgeom import (
    TorsorReport,
    count_points,
    enumerate_lines,
    singular_points,
    torsor_check,
)
from .matrices import SymMatrix
from .pencil import (
    BinaryForm,
    Pencil,
    SmoothnessReport,
    diagonal_pencil,
    discriminant_cover,
    is_smooth,
    reduce_pencil,
    singular_at,
    smoothness,
    toric_pencil,
)
from .projections import (
    DoubleProjection,
    LineProjection,
    double_projection,
    project_from_line,
    round_trip,
)

__all__ = [
    "BinaryForm",
    "DoubleProjection",
    "IndexCircle",
    "InternalCheckError",
    "LineProjection",
    "OddDecomposition",
    "Pencil",
    "PrecondError",
    "PrimeField",
    "QPencilError",
    "QQ",
    "Rationals",
    "RealVerdict",
    "SmoothnessReport",
    "SymMatrix",
    "TorsorReport",
    "count_points",
    "decomposition",
    "diagonal_pencil",
    "discriminant_cover",
    "double_projection",
    "enumerate_classes",
    "enumerate_lines",
    "index_circle",
    "is_smooth",
    "pencil_decomposition",
    "project_from_line",
    "real_line_exists",
    "real_verdict",
    "reduce_pencil",
    "round_trip",
    "singular_at",
    "singular_points",
    "smoothness",
    "toric_pencil",
    "torsor_check",
]

__version__ = "0.1.0"
