"""Local geometry of surfaces in C^2: complex points, Levi forms, flows."""

from .fields import (
    DEFAULT_FD_STEP,
    MODEL_DOUBLE_POINT,
    MODEL_KINDS,
    MODEL_SPECIAL_HYPERBOLIC,
    ScalarField,
    det_identity_check,
    fd_gradient_arrays,
    fd_levi_arrays,
    model_field,
)
from .flow import CONVERGED_VALUE, FlowResult, flow_to_surface
from .geometry import (
    Box4,
    PointC2,
    eigmin_arrays,
    intersection_sign,
)
from .patches import (
    MODEL_GRAPH_ELLIPTIC,
    MODEL_GRAPH_HYPERBOLIC,
    MODEL_SIGMA_MINUS,
    MODEL_SIGMA_PLUS,
    MODEL_WEINSTEIN,
    LocatedComplexPoint,
    Rect,
    SurfacePatch,
    conjugate_graph,
    det_arrays,
    locate_complex_points,
    min_abs_complex_det,
    model_patch,
    weinstein_double_point_planes,
    winding_index,
)
from .scenes import (
    ModelChart,
    bump_jets,
    cutoff_jets,
    double_point_scene,
    exhaustion_certificate,
    special_hyperbolic_scene,
    tau_jets,
)
from .sweeps import VALUE_FLOOR, grid_chunks, psh_certificate
