"""steinsurf: index calculus and certified local geometry for real
surfaces in complex surfaces.

Three layers:

* :mod:`steinsurf.invariants` — integer invariants of immersed surface
  classes (Euler characteristics, signed complex-point indices, genus
  bounds) and verdicts about Stein regular neighborhoods.
* :mod:`steinsurf.surgery` — replayable surgery moves (connected sums,
  handle attachments, double point resolutions) and a planner for
  classes in the projective plane.
* :mod:`steinsurf.localgeo` — numeric certificates: winding indices of
  complex points, Levi form positivity sweeps, gradient-flow
  retractions, and patched exhaustion functions.

The :mod:`steinsurf.cli` module ties these together behind a scenario
runner (``steinsurf check/plan/replay/verify-local``).
"""

from . import invariants, localgeo, scenario, surgery
from .certificates import Certificate, Witness
from .errors import (
    GeometryError,
    InfeasibleTargetError,
    InvalidClassError,
    NumericalError,
    ScenarioError,
    SteinsurfError,
    SurgeryError,
)
from .invariants import (
    AmbientDescriptor,
    ImmersionClass,
    IndexReport,
    Verdict,
    adjunction_rhs,
    check_adjunction,
    lai,
    oriented_class,
    stein_condition,
    unoriented_class,
    validate,
    verdict,
)
from .surgery import (
    NormalForm,
    PlanTarget,
    SurgeryRecipe,
    SurgeryStep,
    normalize_complex_points,
    plan_cp2,
    replay,
    replay_trace,
)

__version__ = "0.1.0"
