"""Nonparametric drift estimation for SDEs via kernel integral operators.

The drift of ``dX = V(X) dt + G(X) dW`` equals the conditional mean rate of
the path's increments; this package reads that rate off sampled
trajectories with a four-point stencil and regresses it with kernel
smoothing operators, yielding a vector-field estimate as a kernel
expansion.  Benchmark systems, kernel construction with sparsity-targeted
bandwidths, a pooled low-dimensional estimator for structured
high-dimensional systems, and quantitative evaluation tools are included.
"""

from . import condexp
from .condexp import CondExpParams, fit_targets
from .drift import (
    DriftModel,
    SnapshotSet,
    Stencil,
    estimate_drift,
    estimate_drift_sparse,
    extract_snapshots,
    increment_targets,
    predict_drift_many,
)
from .errors import NumericalError
from .evaluation import (
    ErrorReport,
    OrbitComparison,
    compare_orbits,
    pointwise_errors,
    relative_l2_error,
    system_field,
)
from .kernels import (
    KernelModel,
    diffusion_model,
    section_matrix,
    select_bandwidth,
)
from .systems import (
    SystemSpec,
    Trajectory,
    default_initial_state,
    eval_drift,
    load_trajectory,
    make_spec,
    save_trajectory,
    simulate,
)

__version__ = "0.1.0"
