"""Every input budget and memory-chunk size, and the checks that apply them.

An input too large for memory, time or the printed report is a ParamDomainError
raised before the work it would start.  Each budget is a constant here, read by
every caller as ``limits.NAME``, so patching it here reaches them all.  A message
names the inputs and the budget, and prints each int through ``short_count``.
"""

import math

from .errors import ParamDomainError, short_count

# Entries allowed in the (64n^2 + 8n + 1, r, r) stencil buffer of one
# curvature: 2^25 complex entries are 512 MiB.
MAX_STENCIL_ENTRIES = 1 << 25

# Entries allowed in one S^k integer map, the (r, r, F, F) derivation and
# integral maps, and in k F r^k, the bound on certify's F x F eigen-solves;
# also in each Bochner array of the exact estimate.
MAX_SYM_MAP_ENTRIES = 4 * 10**6

# Largest region, in member pairs, whose members are enumerated (by iterating a
# VanishingRegion); also the bound on a region's n and on the other printed
# tables: oracle records, scan coordinates, moment indices.
MAX_REGION_MEMBERS = 10**6

# Python's default limit on the digits of an int it converts to text: a larger
# int could not be written to the JSON report.
MAX_PRINTED_DIGITS = 4300

# Byte budget of one row chunk of the Monte Carlo terms, and of one chunk of
# positivity.verify_estimate's per-case arrays.
_CHUNK_BYTES = 1 << 22

# Byte budget of one (chunk, F, F) complex array of the stacked Griffiths
# iteration, whatever the number of restarts.  Smaller than _CHUNK_BYTES because
# smaller stacks run faster here: griffiths_min at F = 35 with 32 restarts took
# 17.1 ms at 64 KiB and 22.5 ms at 4 MiB (best of 7, one BLAS thread), with the
# same minimum.
_GRIFFITHS_CHUNK_BYTES = 1 << 16


def check_stencil_budget(n: int, r: int, label: str) -> None:
    """Reject the curvature stencil of rank-``r`` metric ``label`` on base dimension
    ``n`` when its (64n^2 + 8n + 1, r, r) buffer has more than MAX_STENCIL_ENTRIES
    entries; callers run it before the first metric evaluation."""
    if (entries := (64 * n * n + 8 * n + 1) * r * r) > MAX_STENCIL_ENTRIES:
        raise ParamDomainError(f"the curvature stencil of rank-{short_count(r)} metric {label!r} "
                               f"on n = {short_count(n)} "
                               f"needs {short_count(entries)} entries, above the budget of "
                               f"{MAX_STENCIL_ENTRIES}")


def check_sym_shape(r: int, k: int) -> None:
    """Reject S^k of a rank-r bundle unless r >= 1 and k >= 0."""
    if r < 1 or k < 0:
        raise ParamDomainError(f"need r >= 1, k >= 0, got r={short_count(r)}, "
                               f"k={short_count(k)}")


def check_sym_budget(r: int, k: int) -> None:
    """Reject S^k of a rank-r bundle unless each S^k integer map fits: at most
    MAX_SYM_MAP_ENTRIES entries (r^2 F^2 for the derivation and integral maps,
    F = dim S^k E), all in int64, whose largest, (k+1)! and k k! at rank 1, need
    k <= 19.  k F r^k, the k-tuple terms of S^k h, sizes no array, but is held to
    the same budget: it is the only bound on the F x F eigen-solves of certify's
    S^k blocks.  Every builder of those maps is called only after this check."""
    check_sym_shape(r, k)
    if k >= 20:
        raise ParamDomainError(f"S^{short_count(k)} is above the S^k budget: its int64 maps "
                               f"hold (k+1)! and k k!, which need k <= 19")
    F = math.comb(r + k - 1, k)
    if max(r * r * F * F, k * F * r**k) > MAX_SYM_MAP_ENTRIES:
        raise ParamDomainError(f"S^{k} of a rank-{short_count(r)} bundle (dimension "
                               f"{short_count(F)}) is above the S^k budget of "
                               f"{MAX_SYM_MAP_ENTRIES} map entries")


def check_float_range(**coefficients) -> None:
    """Reject a coefficient (an exponent m or a twist l) that no float holds; the
    float paths run it before their first metric evaluation.  ``_add_diagonal``
    itself takes any int or Fraction into an object array."""
    for name, value in coefficients.items():
        try:
            float(value)
        except OverflowError as exc:
            raise ParamDomainError(f"{name} in S^k E (det E)^m L^l is beyond the float "
                                   f"range") from exc


def check_samples(samples: int) -> None:
    """Reject a Monte Carlo sample count below the floor of 100 that every
    estimator shares."""
    if samples < 100:
        raise ParamDomainError(f"need at least 100 samples, got {short_count(samples)}")


def check_restarts(restarts: int) -> None:
    """Reject a Griffiths restart count below 1; the scans run it before their
    first metric evaluation."""
    if restarts < 1:
        raise ParamDomainError(f"need restarts >= 1, got {short_count(restarts)}")


def check_form_budget(n: int) -> int:
    """Reject base dimension n when a Bochner array of estimate_check may have
    more than MAX_SYM_MAP_ENTRIES entries.  Each of its arrays (the wedge map K,
    phi . K and W) has at most n C(n, n // 2)^2, whatever the bidegree; that count
    is returned."""
    # C(64, 32)^2 alone is above the budget: no need for larger binomials
    m = min(n, 64)
    if (entries := n * math.comb(m, m // 2) ** 2) > MAX_SYM_MAP_ENTRIES:
        raise ParamDomainError(f"(p, q)-forms on n = {short_count(n)} are above the budget of "
                               f"{MAX_SYM_MAP_ENTRIES} entries per Bochner array")
    return entries


def check_region_n(n: int) -> None:
    """Reject n > MAX_REGION_MEMBERS before any O(n) work: row n of a region
    alone holds n members (the m = 1 branch, with one member, is bounded too)."""
    if n > MAX_REGION_MEMBERS:
        raise ParamDomainError(f"n = {short_count(n)} is above the region budget of "
                               f"{MAX_REGION_MEMBERS} members: row n alone holds n of them")


def check_printed_count(count: int, message: str, *args) -> None:
    """Reject a printed table of ``count`` entries above MAX_REGION_MEMBERS.  The
    error is ``message`` formatted with ``args`` and the count, each int through
    ``short_count``, then the budget."""
    if count > MAX_REGION_MEMBERS:
        args = [short_count(x) if isinstance(x, int) else x for x in (*args, count)]
        raise ParamDomainError(f"{message.format(*args)}, above the budget of {MAX_REGION_MEMBERS}")


def _printable(x: int) -> bool:
    # |x| < 2^bits <= 10^digits: the power of ten is built only near the limit
    return x.bit_length() <= 3.32 * MAX_PRINTED_DIGITS or abs(x) < 10**MAX_PRINTED_DIGITS


def check_printed_digits(name: str, *values, low: float = 0) -> None:
    """Reject ``name`` when the report could not print it: when ``low``, a lower
    bound on its digits, is above MAX_PRINTED_DIGITS, so that the caller can reject
    it before building it, or when the numerator or denominator of one of its
    ``values`` (ints or Fractions) has more digits than that."""
    if low > MAX_PRINTED_DIGITS or not all(_printable(x.numerator) and _printable(x.denominator)
                                           for x in values):
        raise ParamDomainError(f"{name} has more than {MAX_PRINTED_DIGITS} digits, "
                               "above what the report can print")
