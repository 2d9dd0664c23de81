"""poslab: curvature positivity and vanishing regions on complex projective space."""

import os


def _forward_thread_cap() -> None:
    """Forward POSLAB_THREADS to the BLAS thread variables left unset.

    BLAS reads them once, when numpy is first imported, so this runs before
    any submodule imports numpy; it cannot cap a numpy imported earlier.
    The computation itself is serial and deterministic.
    """
    threads = os.environ.get("POSLAB_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_forward_thread_cap()

from .bundles import (
    builtin,
    det_field,
    direct_sum,
    frame_normalized,
    load_metric_json,
    o_line,
    tangent_pn,
    tangent_pn_twist,
    twist,
)
from .errors import (
    BidegreeError,
    DimMismatchError,
    FrameNotNormalizedError,
    LengthMismatchError,
    NonpositivePolarizationError,
    ParamDomainError,
    PoslabError,
    SingularMetricError,
    StencilOutOfChartError,
)
from .geometry import (
    CurvatureTensor,
    MetricField,
    chern_curvature,
    fubini_study,
    normalize_at_point,
    sample_points,
)
from .moments import (
    integral_formula_mc,
    integral_formula_rhs,
    integral_formula_tensor,
    moment_exact,
    moment_mc,
    moment_mc_table,
    verify_lemma_linear,
)
from .oracles import (
    CohomologyDim,
    consistency_check,
    grassmannian_nonvanishing,
    pn_line_cohomology,
    prop_ex_consistency,
    prop_ex_lambda0,
)
from .positivity import (
    BoundednessCertificate,
    Form,
    PositivityReport,
    boundedness_scan,
    curvature_term,
    dual_nakano_min,
    estimate_check,
    griffiths_min,
    nakano_min,
    sym_twisted_curvature_at,
)
from .regions import (
    TheoremParams,
    VanishingRegion,
    lambda0,
    region,
    region_svg,
    strip_threshold,
    strip_width,
    theorem_region,
)
from .symbundle import (
    SymCurvature,
    generalized_delta,
    gram_diagonal,
    induced_sym_det_curvature,
    sym_basis,
    sym_metric,
    sym_power_field,
    twist_by_line,
)

__version__ = "0.1.0"
