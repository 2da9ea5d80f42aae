"""Independent reference values: limit-case closed forms and brute force.

Everything here deliberately avoids the in-house adaptive quadrature and
the F-family tables.  Ball, box, crosspolytope and ellipsoid intrinsic
volumes come from published closed forms or 1-D integrals evaluated with
scipy's QUADPACK bindings; parallel-body volumes come from hit-or-miss
Monte Carlo backed by an exact Euclidean projection onto the ball.  The
test suite plays these references against the exactvol routines, and the
command-line `validate` suites reuse them.

A Monte Carlo draw is classified by the first certified bound on its
distance to the body that decides it: |x| against the radii of balls
inside and around B (Hoelder, moved outward past rounding), then the
axis segments inside B and the box around it, then the gauge, then the
distance duality d(x, B) = max over unit u of <x, u> - h(u), h the
support function: any u gives a lower bound, and the boundary point
with outer normal u an upper one, both in closed form for a weighted
p-ball, with u refined by a few Newton steps.  Only the draws these
leave open are projected.  Draws come in blocks of _BLOCK rows, so
memory does not grow with the batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .exactvol import PBallSpec, _pnorm
from .roots import solve_increasing, walk_bracket
from .rng import batches
from .specfun import QuadConfig, kappa, log_choose, log_kappa
from .symfun import elementary_symmetric

__all__ = [
    "McConfig",
    "ball_vj", "cube_vj", "crosspolytope_vj", "ellipsoid_vj",
    "project_lp_ball", "steiner_mc_volume",
]

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_BATCH = 65_536
_BLOCK = 8_192
_NEWTON_STEPS = 8
_NUDGE = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls: total draws and stream seed.

    Results are bitwise reproducible given (sample_count, seed): draws come
    in batches of _BATCH, and batch b consumes its own counter-based
    substream keyed (seed, b), so merging is order-independent.  A batch
    is drawn in blocks of _BLOCK rows, each block the next rows of the
    batch's own stream, so the block size changes no draw.
    """

    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.sample_count, int)
                and self.sample_count >= 10_000):
            raise DomainError(
                f"sample_count must be an int >= 10^4, got "
                f"{self.sample_count!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must be a 64-bit int, got {self.seed!r}")


def _check_index(n: int, j: int, hi: int):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"dimension must be a positive int, got {n!r}")
    if not (isinstance(j, (int, np.integer)) and 0 <= j <= hi):
        raise DomainError(f"index {j!r} outside 0..{hi}")


def _quad_rel(cfg: QuadConfig | None) -> float:
    # QUADPACK bottoms out near 1e-12 relative; clip requests below that
    return 1e-11 if cfg is None else max(cfg.rel_tol, 1e-12)


def _positive_vector(values, n: int, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise DomainError(f"{what} must have shape ({n},), got {v.shape}")
    if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
        raise DomainError(f"{what} must be finite and positive")
    return v


def ball_vj(n: int, j: int) -> float:
    """V_j of the unit Euclidean ball: C(n,j) kappa_n / kappa_(n-j)."""
    _check_index(n, j, n)
    return math.exp(log_choose(n, j) + log_kappa(n) - log_kappa(n - j))


def cube_vj(n: int, j: int, half_sides: Sequence[float] = None) -> float:
    """V_j of the box prod_i [-h_i, h_i]: 2^j sigma_j(h).

    half_sides = None means the unit cube [-1, 1]^n, where the formula
    collapses to C(n,j) 2^j.
    """
    _check_index(n, j, n)
    if half_sides is None:
        return math.comb(n, j) * 2.0 ** j
    h = _positive_vector(half_sides, n, "half_sides")
    return 2.0 ** j * float(elementary_symmetric(h)[j])


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def crosspolytope_vj(n: int, j: int, cfg: QuadConfig = None,
                     weights: Sequence[float] = None) -> float:
    """V_j of the crosspolytope conv{+-e_i / a_i} by 1-D quadrature.

    Unit case: 2^(j+1) C(n,j+1) ((j+1)/j!) int_0^inf phi(sqrt(j+1) x)
    (2 Phi(x) - 1)^(n-j-1) dx with phi, Phi the standard normal density
    and distribution function.  Weighted case: the same integral summed
    over all (j+1)-subsets L with weight (sum_L a_i^2) / prod_L a_i.
    j = n is the exact volume 2^n / (n! prod a_i).
    """
    _check_index(n, j, n)
    rel = _quad_rel(cfg)
    if weights is not None:
        a = _positive_vector(weights, n, "weights")
    if j == n:
        log_v = n * math.log(2.0) - math.lgamma(n + 1.0)
        if weights is not None:
            log_v -= float(np.log(a).sum())
        return math.exp(log_v)
    # deferred: slow imports, oracle only
    from scipy.integrate import quad
    from scipy.special import erf

    if weights is None:
        s = math.sqrt(j + 1.0)

        def integrand(x):
            return _phi(s * x) * erf(x / _SQRT2) ** (n - j - 1)

        val, _ = quad(integrand, 0.0, np.inf,
                      epsabs=1e-13, epsrel=rel, limit=200)
        return (2.0 ** (j + 1) * math.comb(n, j + 1)
                * (j + 1) / math.factorial(j) * val)
    total = 0.0
    for L in itertools.combinations(range(n), j + 1):
        mask = np.zeros(n, dtype=bool)
        mask[list(L)] = True
        s2 = float(np.sum(a[mask] ** 2))
        s = math.sqrt(s2)
        rest = a[~mask]

        def integrand(x, s=s, rest=rest):
            return _phi(s * x) * float(np.prod(erf(rest * x / _SQRT2)))

        val, _ = quad(integrand, 0.0, np.inf,
                      epsabs=1e-13, epsrel=rel, limit=200)
        total += s2 / float(np.prod(a[mask])) * val
    return 2.0 ** (j + 1) / math.factorial(j) * total


def ellipsoid_vj(semiaxes: Sequence[float], j: int, cfg: QuadConfig = None,
                 form: str = "A") -> float:
    """V_j of the ellipsoid with the given semiaxes b, by 1-D quadrature.

    Two published representations:

        form A (j = 0..n-1):
            kappa_j sum_i b_i^2 sigma_j(b^2 without i)
            int_0^inf t^(j+1) / ((1 + b_i^2 t^2)
                                 prod_r (1 + b_r^2 t^2)^(1/2)) dt
        form B (j = 1..n): same with sigma_(j-1) and t^(j-1).

    On the overlap j = 1..n-1 the two agree (non-trivially), which the
    test suite checks.
    """
    if form not in ("A", "B"):
        raise DomainError(f"form must be 'A' or 'B', got {form!r}")
    b = np.asarray(semiaxes, dtype=float)
    n = b.shape[0] if b.ndim == 1 else 0
    b = _positive_vector(b, n, "semiaxes")
    if n < 2:
        raise DomainError("ellipsoid oracle needs dimension >= 2")
    lo = 0 if form == "A" else 1
    hi = n - 1 if form == "A" else n
    if not (isinstance(j, (int, np.integer)) and lo <= j <= hi):
        raise DomainError(f"form {form} covers j in {lo}..{hi}, got {j!r}")
    from scipy.integrate import quad  # deferred: slow import, oracle only

    rel = _quad_rel(cfg)
    b2 = b * b
    power = j + 1 if form == "A" else j - 1
    k = j if form == "A" else j - 1
    total = 0.0
    for i in range(n):
        sig = float(elementary_symmetric(np.delete(b2, i))[k])

        def integrand(t, bi2=float(b2[i])):
            q = 1.0 + b2 * (t * t)
            return t ** power / ((1.0 + bi2 * t * t)
                                 * math.sqrt(float(np.prod(q))))

        val, _ = quad(integrand, 0.0, np.inf,
                      epsabs=1e-13, epsrel=rel, limit=200)
        total += float(b2[i]) * sig * val
    return kappa(j) * total


def _radii(spec: PBallSpec, t: float) -> tuple[float, float]:
    """(r_in + t, r_out + t) with r_in B_2 inside B inside r_out B_2.

    By Hoelder ||v||_2 and ||v||_p differ by at most n^|1/2 - 1/p|, and
    a_i scales coordinate i: r_in = n^min(0, 1/2 - 1/p) / max a, r_out =
    n^max(0, 1/2 - 1/p) / min a.  Both move outward by 16 ulp, more than
    the rounding of the powers, of the sum with t and of |x|^2, so
    |x| <= r_in + t certifies a hit and |x| > r_out + t a miss.
    """
    k = 0.5 - 1.0 / spec.p
    a = spec.weights
    return ((spec.n ** min(0.0, k) / a.max() + t) * (1.0 - _NUDGE),
            (spec.n ** max(0.0, k) / a.min() + t) * (1.0 + _NUDGE))


def _project_outside(spec: PBallSpec, x: np.ndarray) -> np.ndarray:
    """Project points with gauge > 1 onto the boundary (coordinates >= 0).

    In z = a y the KKT system is z_i + c_i z_i^(p-1) = xi_i, xi = a x,
    c_i = mu p a_i^2, with mu > 0 such that sum_i z_i^p = 1 (no a_i^p,
    and z <= 1 at the root); both levels go through solve_increasing.
    Inner, in v = log z (finite bracket and O(1) Newton steps near
    p = 1): one term on the left is at least xi/2, so u 2^(-max(1,
    1/(p-1))) <= z <= u = min(xi, (xi/c)^(1/(p-1))); it starts from the
    previous outer step's v moved by dv/ds = -(xi-z)/(z + (p-1)(xi-z))
    (c z^(p-1) = xi - z), first from the radial point rho = xi / gauge.
    p = 2 is direct.  Outer, in s = log mu: from the radial estimate
    mu_0 = <x - r, g>/|g|^2, r = x / gauge, g = p a^p r^(p-1), which is
    (gauge - 1) / (p sum_i a_i^2 rho_i^(2p-2)), doubling or halving mu
    brackets the root (walk_bracket), and Newton starts from the step
    taken at mu_0.
    Overflow far from the root leaves the signs that steer the bracket.
    """
    p, a = spec.p, spec.weights
    e = p - 1.0
    xi = x * a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gauge = _pnorm(xi, p)
        rho = xi / gauge[:, None]
        s0 = np.log((gauge - 1.0)
                    / (p * np.sum(a * a * rho ** (2.0 * e), axis=1)))
        log_pa2 = np.log(p * a * a)
        log_xi = np.log(xi)
        # last inner solution (s, v = log z) and dv/ds there
        warm = [s0, np.log(rho), np.zeros_like(xi)]

        def inner(s):
            log_c = s[:, None] + log_pa2
            if p == 2.0:
                return xi / (1.0 + np.exp(log_c))
            log_u = np.minimum(log_xi, (log_xi - log_c) / e)

            def f(v):
                z = np.exp(v)
                term = np.exp(log_c + e * v)
                return z + term - xi, z + e * term

            s_old, v_old, dv = warm
            v = solve_increasing(f, log_u - max(1.0, 1.0 / e) * _LOG2, log_u,
                                 start=v_old + (s - s_old)[:, None] * dv)
            warm[:2] = s, v
            return np.exp(v)

        def outer(s):
            z = inner(s)
            zp = z ** p
            r = xi - z
            den = z + e * r
            # dv/ds = -r / den; 0 where xi = z = 0
            warm[2] = dv = -r / np.where(den > 0.0, den, 1.0)
            return 1.0 - zp.sum(axis=1), -p * (zp * dv).sum(axis=1)

        g, dg = outer(s0)
        lo, hi = walk_bracket(lambda s: outer(s)[0], s0, _LOG2, g_start=g)
        s = solve_increasing(outer, lo, hi, start=s0 - g / dg)
        y = inner(s) / a
    r = np.max(np.abs(np.sum((a * y) ** p, axis=1) - 1.0))
    if not r <= 1e-10:
        raise ConvergenceFailure(f"projection residual {r:.3e} above 1e-10")
    return y


def _project_batch(spec: PBallSpec, pts: np.ndarray) -> np.ndarray:
    out = np.array(pts, dtype=float)
    need = _pnorm(np.abs(out) * spec.weights, spec.p) > 1.0
    if np.any(need):
        x = out[need]
        y = _project_outside(spec, np.abs(x))
        out[need] = np.copysign(y, x)
    return out


def project_lp_ball(spec: PBallSpec, x: Sequence[float]) -> np.ndarray:
    """Euclidean projection of x onto the weighted p-ball.

    Interior points come back unchanged; exterior points land on the
    boundary with gauge residual below 1e-10 (ConvergenceFailure
    otherwise).
    """
    pt = np.asarray(x, dtype=float)
    if pt.shape != (spec.n,):
        raise DomainError(f"point must have shape ({spec.n},), got "
                          f"{pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise DomainError("point must be finite")
    return _project_batch(spec, pt[None, :])[0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-column dot product of (n, k) arrays."""
    return np.einsum("ij,ij->j", x, y)


def _support_bounds(spec: PBallSpec, x: np.ndarray, v: np.ndarray):
    """Certified bounds on d(x, B) from the direction u = v / |v|.

    Columns x >= 0 and v >= 0, v != 0 (shape (n, k), a draw per column,
    so that reductions over coordinates run along contiguous memory).
    With h(u) = ||u / a||_q, q = p/(p-1), the support function of B,
    lower = <x, u> - h(u) <= d(x, B).  Two points of B give upper =
    min |x - y| >= d(x, B): y = grad h(u), the boundary point with outer
    normal u, and the point x - v, clipped at 0 and pulled in radially
    when outside B.  Both are scaled by their computed gauge and moved
    inside B by _NUDGE.  Returns (lower, upper, h(v), r, g) with r =
    v / (a h(v)) and g = r^(q-1) = a grad h(v), for the Newton step.
    """
    p, a = spec.p, spec.weights[:, None]
    q = p / (p - 1.0)
    hv = _pnorm((v / a).T, q)
    r = v / a / hv
    g = r ** (q - 1.0)
    lower = (_dot(x, v) - hv) / np.sqrt(_dot(v, v))
    # ||g||_p^p = sum g r since (q-1)(p-1) = 1: the ulp by which g is
    # rounded is p-1 ulp of g^p, and one again after the 1/p-th root
    y = g / a * ((1.0 - _NUDGE) / np.sum(g * r, axis=0) ** (1.0 / p))
    z = np.maximum(x - v, 0.0)
    z *= (1.0 - _NUDGE) / np.maximum(_pnorm((z * a).T, p), 1.0)
    upper = np.sqrt(np.minimum(_dot(x - y, x - y), _dot(x - z, x - z)))
    return lower, upper, hv, r, g


def _newton_step(spec: PBallSpec, x: np.ndarray, v: np.ndarray,
                 hv: np.ndarray, r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton step toward v* = x - proj(x), the minimizer of the convex
    Phi(v) = h(v) + |v - x|^2 / 2, cut so that no coordinate of v loses
    more than 9/10 of itself.

    The gradient is v + g/a - x and the Hessian I + k (diag(lam) - g g^T)
    scaled by 1/a on both sides, with k = (q-1)/h(v), lam = r^(q-2);
    Sherman-Morrison with m = 1/(1 + k lam/a^2) solves it, and its
    denominator 1 - k sum m g^2/a^2 equals sum m r^q, free of
    cancellation because sum r^q = 1.
    """
    p, a = spec.p, spec.weights[:, None]
    q = p / (p - 1.0)
    k = (q - 1.0) / hv
    m = 1.0 / (1.0 + k * r ** (q - 2.0) / (a * a))
    grad = v + g / a - x
    mg = m * g / a
    step = m * grad + k * mg * (_dot(mg, grad) / _dot(m, g * r))
    cut = np.min(np.where(step > 0.0, v / step, np.inf), axis=0)
    return step * np.minimum(1.0, 0.9 * cut)


def _support_search(spec: PBallSpec, x: np.ndarray, gauge: np.ndarray,
                    t_miss: float, t_hit: float):
    """(hit, open) masks over columns x >= 0 outside B (gauge > 1).

    A draw is a miss once a lower bound exceeds t_miss and a hit once an
    upper bound is at most t_hit.  The first v is the radial residual
    x - x/gauge, where the bounds are the support plane at x/|x| and the
    radial chord.  Then each open draw tries the chord length along the
    outer normal at the radial point, and after it up to _NEWTON_STEPS
    Newton steps, each from v moved along its ray to the minimum of Phi,
    where |v| = lower(v) (Phi there is |x|^2/2 - lower^2/2).  A try that
    raises the lower bound is kept; one that does not is undone and
    halves the draw's damping, and a kept one resets it to 1.
    """
    p, a = spec.p, spec.weights[:, None]
    rad = x / gauge
    v = x - rad
    lower, upper, hv, r, g = _support_bounds(spec, x, v)
    hit = upper <= t_hit
    done = hit | (lower > t_miss)
    cols = np.flatnonzero(~done)
    # np.take and np.compress keep a (n, k) array C-ordered; x[:, cols]
    # would not
    x, v, r, g, rad = (np.take(c, cols, 1) for c in (x, v, r, g, rad))
    lower, hv = lower[cols], hv[cols]
    v_try = a * (a * rad) ** (p - 1.0)
    v_try *= np.sqrt(_dot(v, v) / _dot(v_try, v_try))
    damp = np.ones(len(cols))
    for step in range(_NEWTON_STEPS + 1):
        if not len(cols):
            break
        if step:
            f = np.where(lower > 0.0, lower / np.sqrt(_dot(v, v)), 1.0)
            v, hv = v * f, hv * f
            v_try = v - damp * _newton_step(spec, x, v, hv, r, g)
        lower_t, upper_t, hv_t, r_t, g_t = _support_bounds(spec, x, v_try)
        hit[cols[upper_t <= t_hit]] = True
        done[cols[(upper_t <= t_hit) | (lower_t > t_miss)]] = True
        up = lower_t > lower
        damp = np.where(up, 1.0, 0.5 * damp)
        v, r, g = (np.where(up, new, old)
                   for new, old in ((v_try, v), (r_t, r), (g_t, g)))
        lower, hv = np.where(up, lower_t, lower), np.where(up, hv_t, hv)
        keep = ~done[cols]
        x, v, r, g = (np.compress(keep, c, 1) for c in (x, v, r, g))
        cols, lower, hv, damp = cols[keep], lower[keep], hv[keep], damp[keep]
    return hit, ~done


def _offset_contains(spec: PBallSpec, pts: np.ndarray,
                     t: float) -> np.ndarray:
    """Membership mask for the parallel body B + t B_2^n.

    Each test is a certified bound on d(x, B), compared with a margin
    past its rounding, and a draw pays only for the tests its position
    needs, in this order:

    1. |x|^2 alone: |x| <= r_in + t is a hit, |x| > r_out + t a miss;
    2. in the annulus between, the axis segments [-1/a_i, 1/a_i] e_i
       inside B (a hit when the nearest is within t) and the box
       [-1/a, 1/a] around B (a miss when d(x, box) > t);
    3. the gauge: <= 1 inside B, a hit (at t = 0 the gauge alone
       decides every row of the annulus);
    4. support-direction bounds (_support_search);
    5. only the rows left open pay for an exact projection.
    """
    s = np.einsum("ij,ij->i", pts, pts)
    r_hit, r_miss = _radii(spec, t)
    hit = s <= r_hit * r_hit
    idx = np.flatnonzero(~hit & (s <= r_miss * r_miss))
    # B is symmetric in each coordinate, so |x| has the same distance;
    # one column per draw
    ax = np.abs(pts[idx].T, order="C")
    a = spec.weights[:, None]
    if t == 0.0:
        hit[idx] = _pnorm((ax * a).T, spec.p) <= 1.0
        return hit
    # each bound is a few roundings of numbers at most r_miss in size
    t_miss = t + 2.0 * _NUDGE * r_miss
    t_hit = max(t - 2.0 * _NUDGE * r_miss, 0.0)
    over = np.maximum(ax - 1.0 / a, 0.0) ** 2
    # sum_(j != i) x_j^2 as a sum, free of the cancellation in |x|^2 - x_i^2
    seg = np.min((1.0 - np.eye(spec.n)) @ (ax * ax) + over, axis=0)
    near = seg <= t_hit * t_hit
    hit[idx[near]] = True
    rest = ~near & ~(over.sum(axis=0) > t_miss * t_miss)
    idx, ax = idx[rest], np.compress(rest, ax, 1)
    gauge = _pnorm((ax * a).T, spec.p)
    inside = gauge <= 1.0
    hit[idx[inside]] = True
    idx, ax, gauge = idx[~inside], np.compress(~inside, ax, 1), gauge[~inside]
    if len(idx):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            found, open_ = _support_search(spec, ax, gauge, t_miss, t_hit)
        hit[idx[found]] = True
        idx = idx[open_]
    if len(idx):
        ax = np.abs(pts[idx])
        dist = np.linalg.norm(ax - _project_outside(spec, ax), axis=1)
        hit[idx] = dist <= t
    return hit


def steiner_mc_volume(spec: PBallSpec, t: float,
                      mc: McConfig) -> tuple[float, float]:
    """Hit-or-miss Monte Carlo volume of B + t B_2^n for n in {2, 3}.

    Uniform draws over the tight bounding box prod [-1/a_i - t,
    1/a_i + t]; returns (estimate, standard error) with the binomial
    standard error of the hit count.  Each batch is drawn in blocks of
    _BLOCK rows into one buffer, and each block is classified on its own,
    so memory is bounded by the block.
    """
    if spec.n not in (2, 3):
        raise DomainError(f"Monte Carlo oracle covers n in {{2, 3}}, got "
                          f"n={spec.n}")
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"offset distance must be >= 0, got {t}")
    half = 1.0 / spec.weights + t
    box_vol = float(np.prod(2.0 * half))
    total = mc.sample_count
    hits = 0
    buf = np.empty((min(_BLOCK, total), spec.n))
    for gen, size in batches(mc.seed, total, _BATCH):
        for done in range(0, size, _BLOCK):
            pts = buf[:min(_BLOCK, size - done)]
            # (2 U - 1) half, rounded step by step as one expression would
            gen.random(out=pts)
            pts *= 2.0
            pts -= 1.0
            pts *= half
            hits += int(np.count_nonzero(_offset_contains(spec, pts, t)))
    rate = hits / total
    estimate = box_vol * rate
    std_err = box_vol * math.sqrt(max(rate * (1.0 - rate), 0.0) / total)
    return estimate, std_err
