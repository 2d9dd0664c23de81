"""Job lists of the poslab benchmark workloads and the checks on their outputs.

A job is one poslab CLI command line plus a check of its parsed stdout JSON.
A workload's job list is regenerated for every pass from (seed, pass index).
The structure of a pass -- which commands, at which sizes, how many -- is
fixed per workload, so the work a pass does does not depend on the seed.  The
seed picks only values that change the numbers and not the amount of work:
twists, line degrees, point seeds, user-metric coefficients and job order.

Checks compare against closed forms for the homogeneous built-ins, against
exact rational references for regions, checks and oracles, and against
``reference.json`` (outputs recorded from the source tree this benchmark was
written against) for the user JSON metrics, whose curvature has no closed
form.

The statistical ``verify`` commands (moments, lemma-linear) run at the CLI's
default Monte Carlo seed.  Their pass/fail test takes the worst of many 3-sigma
z-scores, so a random ``--seed`` fails by chance: 4 of 200 seeds for
``verify --what moments --r 3 --k 2`` and 4 of 80 for small lemma-linear jobs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction
from typing import Callable

WORKLOADS = ("certify-mix", "lemma-triangle", "moments-exact")

USER_POOL = 16          # user JSON metrics with recorded reference outputs
USER_LEMMA_M = (1, 2, 3, 4)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances of the output checks.
CLOSED_FORM_TOL = 1e-6     # epsilon bounds and positivity minima vs closed forms
BOUNDARY_TOL = 1e-8        # |Nakano minimum| at the boundary twist l = 1 - k
REFERENCE_TOL = 1e-6       # user-metric outputs vs reference.json
MC_SIGMAS = 6.0            # single Monte Carlo moment vs its exact value


@dataclasses.dataclass
class Job:
    """One CLI command; ``check`` returns a failure message or None."""

    argv: list[str]
    check: Callable[[dict], str | None]


def make_jobs(workload: str, seed: int, pass_index: int, workdir: str,
              limit: int | None = None) -> list[Job]:
    """The job list of one pass; user metrics are written as JSON files to ``workdir``.

    ``limit`` keeps the first jobs in generation order, which lists the cheap
    ones first; it exists for smoke tests.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    # Each pass takes the next user metric of a seeded permutation of the pool.
    pool = list(range(USER_POOL))
    random.Random(f"{workload}:{seed}:pool").shuffle(pool)
    entry = pool[pass_index % USER_POOL]
    path = os.path.join(workdir, f"user{entry}.json")
    with open(path, "w") as fh:
        json.dump(user_metric(entry), fh)
    if workload == "certify-mix":
        jobs = _certify_mix(rng, entry, path)
    elif workload == "lemma-triangle":
        jobs = _lemma_triangle(rng, entry, path)
    elif workload == "moments-exact":
        jobs = _moments_exact(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    jobs = jobs[:limit]
    rng.shuffle(jobs)
    return jobs


# --- user JSON metrics --------------------------------------------------------


def user_metric(entry: int) -> dict:
    """Rank-2 metric on the chart of P^2: a U(2)-breaking perturbation of O(a)+O(a).

    h = (1+|z|^2)^(-a) [[1 + c1|z1|^2, c2 z1 conj(z2)], [c2 conj(z1) z2, 1 + c3|z2|^2]]
    is positive definite everywhere because c2^2 <= c1 c3 / 4.
    """
    rng = random.Random(f"user-metric:{entry}")
    a = rng.choice((1, 2))
    c1 = round(rng.uniform(0.2, 1.0), 3)
    c3 = round(rng.uniform(0.2, 1.0), 3)
    c2 = round(rng.uniform(-0.5, 0.5) * math.sqrt(c1 * c3), 3)
    w = f"(1 + abs2(z1) + abs2(z2)) ** -{a}"
    return {
        "rank": 2,
        "base_dim": 2,
        "entries": [[f"{w} * (1 + {c1} * abs2(z1))", f"{w} * {c2} * z1 * conj(z2)"],
                    [f"{w} * {c2} * conj(z1) * z2", f"{w} * (1 + {c3} * abs2(z2))"]],
        "label": f"user{entry}",
        "domain_radius": 10.0,
    }


def user_certify_argv(entry: int, path: str) -> dict[str, list[str]]:
    """certify commands on one user metric; all share its points and seed."""
    common = ["--bundle", path, "--n", "2", "--seed", str(entry)]
    return {
        "bounds": ["certify", *common, "--test", "bounds", "--points", "6"],
        "griffiths2": ["certify", *common, "--test", "griffiths", "--sym", "2", "--points", "4"],
        "nakano2": ["certify", *common, "--test", "nakano", "--sym", "2", "--points", "4"],
    }


def user_lemma_argv(entry: int, path: str) -> dict[str, list[str]]:
    return {f"lemma-m{m}": ["verify", "--what", "lemma-linear", "--bundle", path, "--n", "2",
                            "--k", "3", "--m", str(m)] for m in USER_LEMMA_M}


# Output fields compared against reference.json, per command.
REFERENCE_FIELDS = {
    "certify-bounds": (("certificate", "eps1"), ("certificate", "eps2")),
    "certify": (("report", "min_value"),),
    "verify": (("ok",), ("scale",), ("mc_worst_over_3sigma",), ("dev_algebra_vs_fd",),
               ("dev_algebra_vs_integral",), ("dev_fd_vs_integral",)),
}


def reference_fields(argv: list[str]):
    if argv[0] == "certify":
        return REFERENCE_FIELDS["certify-bounds" if "bounds" in argv else "certify"]
    return REFERENCE_FIELDS["verify"]


def field_value(out: dict, path: tuple[str, ...]):
    for part in path:
        out = out[part]
    return out


@functools.cache
def _reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _check_reference(key: str, fields) -> Callable[[dict], str | None]:
    def check(out):
        want = _reference().get(key)
        if want is None:
            return f"no reference output recorded for {key}"
        for path in fields:
            got = field_value(out, path)
            ref = want[".".join(path)]
            if isinstance(ref, bool) or got is None or ref is None:
                if got != ref:
                    return f"{key} {'.'.join(path)}={got!r}, reference {ref!r}"
            elif abs(got - ref) > REFERENCE_TOL * max(1.0, abs(ref)):
                return f"{key} {'.'.join(path)}={got!r}, reference {ref!r}"
        return None
    return check


def _user_jobs(argvs: dict[str, list[str]], entry: int, workload: str) -> list[Job]:
    return [Job(argv, _check_reference(f"{workload}/user{entry}/{name}", reference_fields(argv)))
            for name, argv in argvs.items()]


# --- certify-mix ----------------------------------------------------------------


def _check_bounds(lo: Fraction, hi: Fraction):
    def check(out):
        cert = out["certificate"]
        for name, got, want in (("eps1", cert["eps1"], lo), ("eps2", cert["eps2"], hi)):
            if abs(got - float(want)) > CLOSED_FORM_TOL:
                return f"{name}={got!r}, closed form {want}"
        return None
    return check


def _check_min(want: Fraction):
    """Closed-form minimum; a zero minimum is the boundary twist, checked to 1e-8."""
    def check(out):
        got = out["report"]["min_value"]
        if want == 0:
            return None if abs(got) <= BOUNDARY_TOL else f"boundary min {got!r}, |min| > {BOUNDARY_TOL:g}"
        if abs(got - float(want)) > CLOSED_FORM_TOL:
            return f"min={got!r}, closed form {want}"
        return None
    return check


def _tpn_mins(n, a, k, l, m):
    """Griffiths / Nakano / dual minima of S^k(TP^n O(a)) (det)^m O(l) against O(1)."""
    g = k * (1 + a) + m * (n + 1 + n * a) + l
    return {"griffiths": Fraction(g), "nakano": Fraction(g - 1), "dual": Fraction(g)}


def _dsum_mins(degrees, k, l, m):
    v = Fraction(k * min(degrees) + m * sum(degrees) + l)
    return {"griffiths": v, "nakano": v, "dual": v}


def _certify_mix(rng, entry, path):
    jobs: list[Job] = []

    def seed():
        return str(rng.randrange(2 ** 31))

    def bounds(bundle, n, line, lo, hi, points):
        argv = ["certify", "--bundle", bundle, "--n", str(n), "--test", "bounds",
                "--l", line, "--points", str(points), "--seed", seed()]
        jobs.append(Job(argv, _check_bounds(Fraction(lo), Fraction(hi))))

    def tests(bundle, n, k, l, mins, which, m=0, points=4):
        s = seed()  # every test of the group re-uses one bundle, point set and seed
        for test in which:
            argv = ["certify", "--bundle", bundle, "--n", str(n), "--test", test,
                    "--sym", str(k), "--twist", str(l), "--det", str(m),
                    "--points", str(points), "--seed", s]
            jobs.append(Job(argv, _check_min(mins[test])))

    def dsum(degrees):
        return "dsum(" + ",".join(str(d) for d in degrees) + ")"

    # (eps1, eps2) of the homogeneous built-ins: TP^n O(a) is [1+a, 2+a] times
    # omega_FS, O(a)+O(b) is [min, max]; against O(c) or det E divide by its degree.
    bounds("tpn", 2, "o(1)", 1, 2, points=8)
    a = rng.choice((-1, -1, 1, 2))
    bounds(f"tpn_twist({a})", 3, "o(1)", 1 + a, 2 + a, points=6)
    bounds("dsum(3,-1)", 2, "o(2)", Fraction(-1, 2), Fraction(3, 2), points=8)
    degrees = rng.sample(range(-3, 5), 2)
    c = rng.choice((1, 2, 3))
    bounds(dsum(degrees), 2, f"o({c})", Fraction(min(degrees), c), Fraction(max(degrees), c), points=8)
    bounds("tpn", 3, "det", Fraction(1, 4), Fraction(1, 2), points=6)
    degrees = rng.sample(range(1, 5), 3)
    total = sum(degrees)
    bounds(dsum(degrees), 3, "det", Fraction(min(degrees), total), Fraction(max(degrees), total), points=6)
    bounds("tpn", 5, "o(1)", 1, 2, points=4)

    # Positivity of S^k E (det E)^m O(l).  Nakano and dual-Nakano are > 0 for
    # l >= 2-k; at the boundary twist l = 1-k the Nakano minimum is exactly 0.
    tests("tpn", 3, 1, 0, _tpn_mins(3, 0, 1, 0, 0), ("nakano", "dual"), points=8)
    tests("tpn", 5, 1, 0, _tpn_mins(5, 0, 1, 0, 0), ("nakano", "griffiths"))
    l = rng.choice((-1, 0, 1))
    tests("tpn", 3, 3, l, _tpn_mins(3, 0, 3, l, 0), ("nakano", "dual"))
    l = rng.choice((0, 1))
    tests("tpn", 4, 2, l, _tpn_mins(4, 0, 2, l, 0), ("griffiths", "nakano"))
    a = rng.choice((1, 2))
    l = rng.choice((-2, -1, 0))
    tests(f"tpn_twist({a})", 2, 3, l, _tpn_mins(2, a, 3, l, 0), ("griffiths", "nakano"))
    degrees = rng.sample(range(1, 5), 3)
    l = rng.choice((-1, 0, 1))
    tests(dsum(degrees), 2, 2, l, _dsum_mins(degrees, 2, l, 1), ("nakano", "dual", "griffiths"), m=1)
    tests("tpn", 5, 3, 0, _tpn_mins(5, 0, 3, 0, 0), ("griffiths",))

    jobs.extend(_user_jobs(user_certify_argv(entry, path), entry, "certify-mix"))
    return jobs


# --- lemma-triangle ---------------------------------------------------------------


def _check_ok(out):
    return None if out.get("ok") is True else f"reported ok={out.get('ok')!r}"


def _lemma_triangle(rng, entry, path):
    jobs: list[Job] = []
    m0 = rng.choice((1, 2, 3))

    def sweep(bundle, n, k, ms):
        for m in ms:
            argv = ["verify", "--what", "lemma-linear", "--bundle", bundle, "--n", str(n),
                    "--k", str(k), "--m", str(m)]
            jobs.append(Job(argv, _check_ok))

    # Five of the fourteen jobs share one shape, so the median job is a
    # dsum(1,1) k=4 job whatever the machine does; the eleventh-largest
    # latency falls among the dsum(1,1,1) k=3 jobs for 5 to 10 passes.
    sweep("tpn", 2, 2, range(m0, m0 + 3))
    sweep("dsum(1,1)", 2, 4, range(m0, m0 + 5))
    sweep("dsum(1,1,1)", 2, 3, range(m0, m0 + 2))
    sweep("tpn", 3, 3, (m0,))
    sweep("tpn", 2, 4, (m0,))
    ms = {f"lemma-m{m}" for m in (m0, m0 + 1)}
    argvs = {name: argv for name, argv in user_lemma_argv(entry, path).items() if name in ms}
    jobs.extend(_user_jobs(argvs, entry, "lemma-triangle"))
    return jobs


# --- moments-exact ----------------------------------------------------------------


def _check_moment(r, A, B):
    delta = math.prod(math.factorial(c) for c in Counter(A).values()) if Counter(A) == Counter(B) else 0
    exact = Fraction(delta, math.factorial(r + len(A) - 1))

    def check(out):
        if out["exact"] != str(exact):
            return f"exact moment {out['exact']}, expected {exact}"
        dev = abs(complex(*out["mc"]) - float(exact))
        if dev > MC_SIGMAS * out["stderr"]:
            return f"Monte Carlo moment off by {dev:.3g} > {MC_SIGMAS:g} stderr"
        return None
    return check


def _lambda0(theorem, r, k, m, eps1=None, eps2=None) -> Fraction:
    if theorem == "main1":
        return (m + (r + k) * eps1) / (m + (r + k) * eps2)
    if theorem == "gg":
        return Fraction(m - 1, m - 1 + r + k)
    return Fraction(m - 1 - (r + k), m - 1 + r * (r + k))  # ample


def _check_region(n, lam, rng, must_contain=()):
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(64)] + list(must_contain)

    def check(out):
        if out["lambda0"] != str(lam):
            return f"lambda0={out['lambda0']}, expected {lam}"
        if out["s0"] != str(Fraction(2 * n) / (1 + lam) - n):
            return f"s0={out['s0']}, expected {Fraction(2 * n) / (1 + lam) - n}"
        members = {tuple(x) for x in out["members"]}
        for p, q in pairs:
            inside = min(Fraction(n - q, p), Fraction(n - p, q)) <= lam
            if inside != ((p, q) in members):
                return f"pair ({p},{q}) membership {not inside}, expected {inside}"
        return None
    return check


def _check_consistency(n, k, l):
    lam = Fraction(l + k - 1, l + n + 2 * k - 1)

    def check(out):
        if out["status"] != "PASS" or out["lambda0"] != str(lam):
            return f"status={out['status']} lambda0={out.get('lambda0')}, expected PASS {lam}"
        return None
    return check


def _check_grassmannian(d, r, k):
    q_star, j = (r - 1) * (d - r), k + r - d
    dim_star = math.comb(d - 1 + j, j) if j >= 0 else 0

    def check(out):
        for x in out["dims"]:
            want = dim_star if x["q"] == q_star else 0
            if x["dim"] != want:
                return f"dim H^(n,{x['q']}) = {x['dim']}, expected {want}"
        return None
    return check


def _check_dim(want):
    def check(out):
        return None if out["dim"] == want else f"dim={out['dim']}, expected {want}"
    return check


def _moments_exact(rng):
    jobs: list[Job] = []
    for r, k in ((3, 2), (4, 3)):
        argv = ["verify", "--what", "moments", "--r", str(r), "--k", str(k), "--samples", "100000"]
        jobs.append(Job(argv, _check_ok))
    for _ in range(4):
        r, k = 3, 2
        A = sorted(rng.choices(range(1, r + 1), k=k))
        B = A if rng.random() < 0.5 else sorted(rng.choices(range(1, r + 1), k=k))
        argv = ["moments", "--r", str(r), "--a", ",".join(map(str, A)), "--b", ",".join(map(str, B)),
                "--samples", "100000", "--seed", str(rng.randrange(2 ** 31))]
        jobs.append(Job(argv, _check_moment(r, A, B)))
    argv = ["verify", "--what", "estimate", "--n", "3", "--trials", "1000",
            "--seed", str(rng.randrange(2 ** 31))]
    jobs.append(Job(argv, _check_ok))

    def region(n, theorem, r, k, m, eps=None, must_contain=()):
        argv = ["region", "--n", str(n), "--r", str(r), "--k", str(k), "--m", str(m), "--theorem", theorem]
        if eps:
            argv += ["--eps1", str(eps[0]), "--eps2", str(eps[1])]
        lam = _lambda0(theorem, r, k, m, *(eps or ()))
        jobs.append(Job(argv, _check_region(n, lam, rng, must_contain)))

    # Known case: lambda0 = 1/2 with (2,4) and (4,3) in the region.
    region(5, "gg", 3, 1, 5, must_contain=((2, 4), (4, 3)))
    region(200, "gg", rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 9))
    # main1 needs m + (r+k) eps1 > 0, here eps1 > -1
    eps1 = Fraction(-rng.randint(1, 3), rng.randint(4, 6))
    eps2 = Fraction(rng.randint(1, 5), rng.randint(1, 3)) + 1
    region(120, "main1", 2, 1, 3, eps=(eps1, eps2))
    r, k = rng.randint(1, 3), rng.randint(1, 3)
    region(60, "ample", r, k, r + k + 1 + rng.randint(1, 6))

    # Sub-millisecond commands are 17 of the 27 jobs (with the n=5 region),
    # so the median job measures CLI overhead.
    for _ in range(8):
        n, k = rng.randint(2, 6), rng.randint(1, 4)
        l = rng.randint(2 - k, 4)
        jobs.append(Job(["check", "--n", str(n), "--k", str(k), "--l", str(l)],
                        _check_consistency(n, k, l)))
    for _ in range(4):
        d = rng.randint(3, 7)
        r, k = rng.randint(1, d - 1), rng.randint(1, 5)
        jobs.append(Job(["oracle", "--family", "grassmannian", "--d", str(d), "--r", str(r), "--k", str(k)],
                        _check_grassmannian(d, r, k)))
    for _ in range(2):
        n, l = rng.randint(1, 6), rng.randint(1, 6)
        jobs.append(Job(["oracle", "--family", "bott", "--n", str(n), "--p", "0", "--q", "0", "--l", str(l)],
                        _check_dim(math.comb(n + l, n))))
        p = rng.randint(0, n)
        jobs.append(Job(["oracle", "--family", "bott", "--n", str(n), "--p", str(p), "--q", str(p), "--l", "0"],
                        _check_dim(1)))
    return jobs
