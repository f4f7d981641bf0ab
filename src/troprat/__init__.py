"""Exact max-plus polynomial algebra: dual subdivisions, tropical plane
curves, pair volumes, minimum-volume representations and complexity."""

from .core import (
    BOTTOM,
    TropNum,
    TropPoly,
    TropRational,
    canonicalize,
    eval_poly,
    func_eq,
    is_unit,
    newton_polygon,
    rat_eq,
    rat_eval,
    stack_pair,
    trop_add,
    trop_mul,
)
from .curve import (
    Divisor,
    PlaneCurve,
    balancing_check,
    curve_to_divisor,
    divisor_add,
    divisor_sub,
    duality_samples,
    graph_duality_check,
    hypersurface_member,
    plane_curve,
    recession_fan,
)
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    LexError,
    NonLatticePolygon,
    ParseError,
    PolygonTooLarge,
    TropError,
)
from .geom import (
    Polygon,
    StackedHull,
    area2,
    hull2,
    lattice_length,
    lattice_points,
    minkowski_sum2,
    summand_decompositions,
    volume_oracle,
    volume_stacked,
)
from .parse import format_poly, parse_poly, tokenize
from .rep import (
    FactoredUni,
    RepPair,
    curve_irreducible,
    enumerate_factorizations,
    fcomp,
    minrep_uni,
    monotonicity_check,
    newton_irreducible,
    try_divide,
    uni_expand,
    uni_factor,
    uni_roots,
    vol_pair,
)
from .subdiv import Subdivision, dual_subdivision, mcomp, subdiv_eq_translate
from .svg import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
