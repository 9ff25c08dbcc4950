"""agreelab: consensus and 2DOF agreement protocols for LTI agent networks."""

from .numerics import Polynomial, poly_roots, routh_hurwitz_stable
from .lti import RationalTF, StateSpace, h2_norm_sq, tf_feedback, tf_to_ss
from .graph import Graph, find_graphs_by_spectrum, modal_transform
from .protocol import (
    AgentModel,
    ClassicConfig,
    TwoDofConfig,
    build_2dof,
    build_classic,
    check_agreement,
    check_cancellation,
    modal_analysis,
)
from .design import FilterParams, design_filter, h2_drift, make_filter
from .sim import (
    SignalSpec,
    Trajectory,
    integrate,
    run_ensemble,
    settling_time,
)

__version__ = "0.1.0"
