"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error JSON.
"""

import math


class PoslabError(Exception):
    code = "ERROR"


class SingularMetricError(PoslabError):
    code = "SINGULAR_METRIC"


class StencilOutOfChartError(PoslabError):
    code = "STENCIL_OUT_OF_CHART"


class FrameNotNormalizedError(PoslabError):
    code = "FRAME_NOT_NORMALIZED"


class LengthMismatchError(PoslabError):
    code = "LENGTH_MISMATCH"


class DimMismatchError(PoslabError):
    code = "DIM_MISMATCH"


class ParamDomainError(PoslabError):
    code = "PARAM_DOMAIN"


class NonpositivePolarizationError(PoslabError):
    code = "NONPOSITIVE_POLARIZATION"


class BidegreeError(PoslabError):
    code = "BIDEGREE_OUT_OF_RANGE"


def short_count(count: int) -> str:
    """An int for an error message: in full up to 30 digits, else its sign and order
    of magnitude, since a rejected int may have more digits than Python prints."""
    if abs(count) < 10**30:
        return str(count)
    return f"about {'-' * (count < 0)}10^{math.log10(abs(count)):.0f}"
