"""The `phi-haar` workload: inputs, the timed evaluation loop that runs in an
op process, and the numeric oracle that checks its outputs afterwards.

Inputs are a pool of POOL_SIZE points made from the seed.  Point i
evaluates Phi for the pair PAIRS[i % len(PAIRS)] at a rotation g that is
Haar-random, except that one point in NEAR_RAY_EVERY has its coset point
g e4 between 1e-10 and 1e-5 from the ray y1 <= 0, y2 = y3 = 0 that the
section chart of `geometry.section_matrix` excludes.  Those points are kept
on purpose: the current chart fails on them, and a fix must show up as
fewer failed points.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from time import perf_counter

import numpy as np

ELL = 6
PAIRS = [(w, k) for w in range(9) for k in range(ELL + 1)]
NEAR_RAY_EVERY = 16
POOL_SIZE = 1008            # lcm(16, 63): each pair meets each residue mod 16
NEAR_RAY_RANGE = (1e-10, 1e-5)
EQUIVARIANCE_EVERY = 32     # bi-equivariance is checked on this subset
PHI_TOL = 1e-9              # against the exact layer; Phi is unit scale
EQUIVARIANCE_TOL = 1e-7     # the tolerance of the existing geometry tests
# what the section chart raises near its excluded ray (ROADMAP item 5)
KNOWN_NEAR_RAY_RAISES = ("ValueError: matrix is not orthogonal",
                         "LinAlgError: ")


def haar(rng, dim: int) -> np.ndarray:
    """A Haar-random rotation: QR of a Gaussian matrix, signs fixed."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def near_ray_so4(rng) -> np.ndarray:
    """A random rotation whose coset point g e4 = (y, u) has y at a
    log-uniform distance in NEAR_RAY_RANGE from the excluded ray."""
    u = haar(rng, 4)[3, 3]
    r = math.sqrt(1.0 - u * u)
    lo, hi = (math.log(v) for v in NEAR_RAY_RANGE)
    d = math.exp(rng.uniform(lo, hi))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    x = np.array([-math.sqrt(r * r - d * d), d * math.cos(angle),
                  d * math.sin(angle), u])
    m = rng.standard_normal((4, 4))
    m[:, 0] = x
    q, rr = np.linalg.qr(m)
    q = q * np.sign(np.diag(rr))
    g = q[:, [1, 2, 3, 0]]
    if np.linalg.det(g) < 0:
        g[:, 0] = -g[:, 0]
    return g


def is_near_ray(i: int) -> bool:
    return i % NEAR_RAY_EVERY == NEAR_RAY_EVERY - 1


@functools.lru_cache(maxsize=2)
def make_pool(seed: int):
    """[(w, k, g)] for every pool index; the same seed gives the same pool.
    Callers share the cached list and must not change it."""
    rng = np.random.default_rng([seed, 0])
    pool = []
    for i in range(POOL_SIZE):
        w, k = PAIRS[i % len(PAIRS)]
        g = near_ray_so4(rng) if is_near_ray(i) else haar(rng, 4)
        pool.append((w, k, g))
    return pool


def equivariance_pairs(seed: int):
    """{pool index: (k1, k2)} for the subset checked for bi-equivariance."""
    rng = np.random.default_rng([seed, 1])
    return {i: (haar(rng, 3), haar(rng, 3))
            for i in range(0, POOL_SIZE, EQUIVARIANCE_EVERY)}


def warm_up(reconstruct_phi):
    """One evaluation per distinct (w, k), at a fixed rotation."""
    g = haar(np.random.default_rng(0), 4)
    for w, k in PAIRS:
        reconstruct_phi(ELL, w, k, g)


def timed_loop(reconstruct_phi, pool, start: int, seconds=None, ops=None):
    """Evaluate pool points from index `start` on, cyclically, until
    `seconds` have passed or `ops` evaluations are done.

    Memory stays the same whatever the throughput, so the op process's peak
    RSS measures the program and not this loop: per pool index it keeps the
    visit count, the summed op seconds and the first output, in buffers
    allocated before the loop.  A repeated evaluation is compared bitwise
    with the first one right after it is timed, and is not kept.

    Returns `visits` and `op_s` per pool index, the first output of every
    visited index as hex of its complex128 bytes (`values`) or the error it
    raised or its wrong shape (`raised`), and the indices whose repeated
    outputs differed from the first."""
    n = len(pool)
    shape = (ELL + 1, ELL + 1)
    first = np.full((n, *shape), np.nan, dtype=complex)
    visits = [0] * n
    op_s = [0.0] * n
    raised = {}
    mismatch = set()
    i = start
    done = 0
    t_begin = perf_counter()
    t_end = t_begin + (seconds if seconds is not None else math.inf)
    while (done < ops) if ops is not None else (perf_counter() < t_end):
        idx = i % n
        w, k, g = pool[idx]
        t0 = perf_counter()
        try:
            out = np.asarray(reconstruct_phi(ELL, w, k, g), dtype=complex)
        except Exception as exc:  # every raised error is a failed op
            out = f"{type(exc).__name__}: {exc}"
        op_s[idx] += perf_counter() - t0
        if not isinstance(out, str) and out.shape != shape:
            out = f"output of shape {out.shape}"
        if visits[idx] == 0:
            if isinstance(out, str):
                raised[idx] = out
            else:
                first[idx] = out
        elif (raised.get(idx) != out if isinstance(out, str)
              else idx in raised or first[idx].tobytes() != out.tobytes()):
            mismatch.add(idx)
        visits[idx] += 1
        i += 1
        done += 1
    return {"visits": visits, "op_s": op_s,
            "values": {str(j): encode(first[j]) for j in range(n)
                       if visits[j] and j not in raised},
            "raised": {str(j): text for j, text in raised.items()},
            "mismatch": sorted(mismatch)}


def encode(phi) -> str:
    return np.asarray(phi, dtype=complex).tobytes().hex()


def decode(text: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(text), dtype=complex).reshape(
        ELL + 1, ELL + 1)


class Oracle:
    """Checks numeric Phi values against the exact layer.

    H(u) is rebuilt from the exact polynomials of `build_Pw` evaluated at
    Fraction(u), which is the float u exactly, and conjugated into place
    with a Householder section that does not share the chart of
    `geometry.section_matrix`; Phi does not depend on the section because
    diag(H) commutes with pi of the rotations fixing e1."""

    def __init__(self):
        from sphmop import geometry
        from sphmop.family import build_Pw
        from sphmop.structure import build_structures
        self.geometry = geometry
        self.P = {w: build_Pw(ELL, w) for w in sorted({w for w, _ in PAIRS})}
        self.U = np.array([[complex(c) for c in row] for row in
                           build_structures(ELL).U.constant_value()])
        self.rep = geometry.RepSO3(ELL)

    @staticmethod
    def section(y: np.ndarray) -> np.ndarray:
        """A rotation taking e1 to y/|y|, as a product of two reflections
        chosen so that no small vector is normalised."""
        yh = y / np.linalg.norm(y)
        e1 = np.array([1.0, 0.0, 0.0])
        if yh[0] <= 0:
            v, fix = e1 - yh, np.diag([1.0, 1.0, -1.0])
        else:
            v, fix = e1 + yh, np.diag([-1.0, 1.0, 1.0])
        return (np.eye(3) - 2.0 * np.outer(v, v) / (v @ v)) @ fix

    def reference(self, w: int, k: int, g: np.ndarray) -> np.ndarray:
        x = g[:, 3]
        u = float(np.clip(x[3], -1.0, 1.0))
        uf = Fraction(u)
        p = np.array([complex(self.P[w][j, k](uf)) for j in range(ELL + 1)])
        t = np.array([(1.0 - u * u) ** (j / 2.0) for j in range(ELL + 1)])
        H = self.U @ (t * p)
        if np.linalg.norm(x[:3]) < 1e-13:
            pk = np.eye(ELL + 1)
        else:
            pk = self.geometry.rep_exp(self.rep, self.section(x[:3]))
        return (pk @ np.diag(H) @ np.linalg.inv(pk)
                @ self.geometry.phi_pi(self.rep, g))

    def error(self, w, k, g, phi) -> float:
        return float(np.max(np.abs(phi - self.reference(w, k, g))))

    def equivariance_error(self, w, k, g, k1, k2) -> float:
        geo = self.geometry
        lhs = geo.reconstruct_phi(ELL, w, k,
                                  geo.embed_so3(k1) @ g @ geo.embed_so3(k2))
        rhs = (geo.rep_exp(self.rep, k1) @ geo.reconstruct_phi(ELL, w, k, g)
               @ geo.rep_exp(self.rep, k2))
        return float(np.max(np.abs(lhs - rhs)))


def known_defect(idx: int, reason: str) -> bool:
    """True for the section chart's known failure (ROADMAP item 5): a
    near-ray point whose evaluation raised one of the errors that chart
    raises there.  A wrong or non-finite value is never excused."""
    return is_near_ray(idx) and reason.startswith(KNOWN_NEAR_RAY_RAISES)


def check_outputs(seed: int, values, raised, oracle=None):
    """Judge the first output of each visited pool index.

    `values` maps an index to its encoded Phi and `raised` maps an index to
    the error its evaluation raised.  Returns {index: reason} for the
    failed points and the largest distance from the exact layer among the
    finite outputs."""
    pool = make_pool(seed)
    pairs = equivariance_pairs(seed)
    oracle = oracle or Oracle()
    errors = dict(raised)
    err_max = 0.0
    for idx, text in sorted(values.items()):
        w, k, g = pool[idx]
        value = decode(text)
        if not np.all(np.isfinite(value)):
            errors[idx] = "non-finite entry"
            continue
        err = oracle.error(w, k, g, value)
        err_max = max(err_max, err)
        if err > PHI_TOL:
            errors[idx] = f"differs from the exact layer by {err:.3g}"
        elif idx in pairs:
            try:
                e = oracle.equivariance_error(w, k, g, *pairs[idx])
            except Exception as exc:  # a raise here is a failed check
                errors[idx] = f"equivariance: {type(exc).__name__}: {exc}"
            else:
                if e > EQUIVARIANCE_TOL:
                    errors[idx] = f"not bi-equivariant, off by {e:.3g}"
    return errors, err_max


def judge(seed: int, segments, oracle=None):
    """Verdict on the outputs of one run's op processes (timed_loop results).

    A pool point fails if check_outputs fails it, if a repeat differed from
    its first output, or if two op processes disagree on it.  `attempted`
    and `failed` count pool points, not evaluations: every evaluation of a
    point is judged, and a point fails if any of them does.  So both counts
    depend on the seed and the program only, not on how many evaluations
    the host managed in the run.  The run is correct only if every failed
    point is a known_defect."""
    first = {}
    reasons = {}
    for data in segments:
        for idx in data["mismatch"]:
            reasons[idx] = "repeated output differs"
        for kind in ("values", "raised"):
            for key, text in data[kind].items():
                idx = int(key)
                if first.setdefault(idx, (kind, text)) != (kind, text):
                    reasons[idx] = "output differs between op processes"
    errors, err_max = check_outputs(
        seed, {i: t for i, (kind, t) in first.items() if kind == "values"},
        {i: t for i, (kind, t) in first.items() if kind == "raised"}, oracle)
    for idx, reason in errors.items():
        reasons.setdefault(idx, reason)
    excused = {i for i, r in reasons.items() if known_defect(i, r)}
    attempted = len(first)
    return {"attempted": attempted, "failed": len(reasons),
            "correct": len(excused) == len(reasons),
            "bad": set(reasons), "err_max": err_max,
            "notes": {"failed_known_defect": len(excused),
                      "failed_elsewhere": len(reasons) - len(excused),
                      "failed_ratio": len(reasons) / max(attempted, 1),
                      "error_kinds": sorted({r.split(":")[0]
                                             for r in reasons.values()})}}
