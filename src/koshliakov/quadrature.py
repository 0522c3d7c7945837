"""Adaptive Gauss-Kronrod and tanh-sinh quadrature with certified tails,
and every head and tail rule of the package.

Every integrand passed to this module must accept a numpy array of
abscissas and return an array of values (real or complex).  Results carry
an error estimate and, for semi-infinite ranges, the truncation bound that
was added to it, so callers can propagate an honest budget.

Every integrator also takes vector integrands: f may return shape
(nodes,) or (nodes, m).  An (nodes, m) integrand gets one value and one
error estimate per component from one set of nodes, refined until every
component meets its own budget; a (nodes,) integrand gets a complex value
and a float error, with the arithmetic of a one-component integral.

f gets every node of a refinement round in one call (tanh_sinh: levels
0-3, then one level; Gauss-Kronrod: every panel the round splits), so it
must compute each point independently of the others in its array.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DecayError, DomainError

_EPS = np.finfo(float).eps

# Kronrod 15 abscissas (positive half), Gauss-7 subset at odd indices.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-point tables, ordered left to right.
_NODES15 = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])
_W15 = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
# Gauss-7 weights aligned with the same ordering (zeros at Kronrod-only nodes).
_W7 = np.zeros(15)
_W7[[1, 3, 5]] = _WG[:3]
_W7[7] = _WG[3]
_W7[[9, 11, 13]] = _WG[2::-1]
# As columns, to weight integrand values of shape (15, m).
_W15C = _W15[:, None]
_W7C = _W7[:, None]


class QuadratureSpec(collections.namedtuple("QuadratureSpec", "abs_tol rel_tol max_panels")):
    """Accuracy request for a single integral, checked however it is built."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-10, rel_tol: float = 1e-10, max_panels: int = 2000):
        if abs_tol <= 0 or rel_tol < 0:
            raise DomainError("tolerances must be positive")
        if max_panels < 1:
            raise DomainError("the panel budget must allow refinement")
        return super().__new__(cls, abs_tol, rel_tol, max_panels)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, would skip __new__.
        return cls(*iterable)

    def budget(self, magnitude):
        # fmax is max() for scalars (a nan magnitude gives abs_tol) and
        # works per component on arrays.
        return np.fmax(self.abs_tol, self.rel_tol * magnitude)


class QuadratureResult(NamedTuple):
    """Value plus the estimated quadrature error and tail truncation bound;
    value, err_estimate and (on a semi-infinite range) truncation_bound
    are (m,) arrays for an (nodes, m) integrand."""

    value: complex
    err_estimate: float
    nodes_used: int
    truncation_bound: float = 0.0

    @property
    def total_error(self) -> float:
        return self.err_estimate + self.truncation_bound


def _cabs(v):
    # |v| through hypot, which is what abs() of a Python complex computes;
    # np.abs on a complex array may differ from it in the last bit.
    return np.hypot(v.real, v.imag)


def _gk15(y, a: float, b: float):
    """One Gauss-Kronrod 7-15 panel from f's (15, m) values at its nodes;
    returns per-component (value, error) arrays of shape (m,)."""
    h = 0.5 * (b - a)
    resk = h * (_W15C * y).sum(axis=0)
    resg = h * (_W7C * y).sum(axis=0)
    resabs = abs(h) * (_W15C * np.abs(y)).sum(axis=0)
    mean = resk / (b - a)
    resasc = abs(h) * (_W15C * np.abs(y - mean)).sum(axis=0)
    # Per component in Python floats: math.pow is C pow, which numpy's
    # vector power need not match in the last bit.
    err = []
    for e, asc, mass in zip(_cabs(resk - resg).tolist(), resasc.tolist(),
                            resabs.tolist()):
        if asc != 0.0 and e != 0.0:
            e = asc * min(1.0, math.pow(200.0 * e / asc, 1.5))
        # Roundoff floor: a panel cannot be trusted below 50 eps of its mass.
        err.append(max(e, 50.0 * _EPS * mass))
    err = np.array(err)
    # nan compares false, so a non-finite panel would pass for converged.
    if not (np.isfinite(resk).all() and np.isfinite(err).all()):
        raise ConvergenceError(f"non-finite panel value or error on [{a:g}, {b:g}]")
    return resk.astype(complex), err


def _panels(f, bounds):
    """The (value, error) of every panel (a, b) in bounds from one call of
    f, and the ndim of f's output (m = 1 when it is 1)."""
    x = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _NODES15 for a, b in bounds])
    y = np.asarray(f(x))
    panels = y.reshape(len(bounds), 15, -1)
    return [_gk15(v, a, b) for v, (a, b) in zip(panels, bounds)], y.ndim


def _gauss_kronrod(f, breaks, spec: QuadratureSpec) -> list:
    """Adaptive Gauss-Kronrod on each segment [breaks[i], breaks[i + 1]],
    one QuadratureResult per segment.  The segments refine in lockstep:
    each round splits the worst panel of every segment still above its
    budget, all in one call of f, so a segment takes the panels it would
    take alone (see integrate_finite)."""
    segs = list(zip(breaks[:-1], breaks[1:]))
    first, ndim = _panels(f, segs)
    scales = [np.ldexp(1.0, np.frexp(spec.budget(_cabs(v)))[1]) for v, _ in first]

    def entry(i, a, b, v, e):
        return (-float((e / scales[i]).max()), a, b, v, e)

    # Per segment a max-heap on scaled panel error and the sums (value,
    # error, nodes); refine until every component's sum passes.
    heaps = [[entry(i, a, b, v, e)] for i, ((a, b), (v, e)) in enumerate(zip(segs, first))]
    sums = [(v, e, 15) for v, e in first]
    while live := [i for i, (v, e, _) in enumerate(sums) if (e > spec.budget(_cabs(v))).any()]:
        popped = []
        for i in live:
            if len(heaps[i]) >= spec.max_panels:
                raise ConvergenceError(
                    f"quadrature error {np.max(sums[i][1]):.3e} above budget after "
                    f"{len(heaps[i])} panels on [{segs[i][0]:g}, {segs[i][1]:g}]")
            _, pa, pb, pval, perr = heapq.heappop(heaps[i])
            mid = 0.5 * (pa + pb)
            if mid <= pa or mid >= pb:
                raise ConvergenceError(
                    f"quadrature error {np.max(sums[i][1]):.3e} above budget: panel "
                    f"[{pa!r}, {pb!r}] cannot be split in double precision")
            popped.append((i, pa, mid, pb, pval, perr))
        halves, _ = _panels(f, [h for _, pa, mid, pb, _, _ in popped
                                for h in ((pa, mid), (mid, pb))])
        for (i, pa, mid, pb, pval, perr), (lv, le), (rv, re) in zip(
                popped, halves[::2], halves[1::2]):
            v, e, n = sums[i]
            sums[i] = (v + (lv + rv - pval), e + (le + re - perr), n + 30)
            heapq.heappush(heaps[i], entry(i, pa, mid, lv, le))
            heapq.heappush(heaps[i], entry(i, mid, pb, rv, re))
    if ndim == 1:
        return [QuadratureResult(complex(v[0]), float(e[0]), n) for v, e, n in sums]
    return [QuadratureResult(v, e, n) for v, e, n in sums]


def integrate_finite(f, a: float, b: float,
                     spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate f over [a, b] adaptively with Gauss-Kronrod panels.

    For an integrable singularity at 0 use `integrate_singular_head`,
    whose tanh-sinh rule never evaluates f at an endpoint.  Raises
    ConvergenceError when the panel budget runs out, or a panel cannot be
    split further, before the requested tolerance is met, and when a
    panel's value or error is not finite.  f is called for the first panel, then once per split.

    f may return shape (nodes, m): value and err_estimate are then (m,)
    arrays, and refinement goes on while any component is above
    spec.budget(|value_j|).  The worst panel is the one with the largest
    err_j / scale_j, where scale_j is fixed by the first panel and rounded
    to a power of two: the division is exact, so one component orders
    panels exactly as its raw error does.
    """
    spec = spec or QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    return _gauss_kronrod(f, [a, b], spec)[0]


# Refinement levels of tanh_sinh after level 0.
_TS_LEVELS = 12


def _ts_nodes(level: int):
    """tanh-sinh abscissa parameters for one refinement level.

    Level 0 uses step h=1 over all multiples; deeper levels supply only the
    odd multiples of the halved step, so previous evaluations are reused.
    |u| <= 6 keeps exp(2v) finite (2v ~ 633 < 709) while pushing the DE
    truncation error below 1e-15 for endpoint singularities up to x^-0.9.
    """
    h = math.ldexp(1.0, -level)
    start, step = (0, 1) if level == 0 else (1, 2)
    return np.arange(start, math.floor(6.0 / h) + 1, step) * h, h


def _ts_levels(a: float, b: float):
    """The tanh-sinh rule on [a, b], levels 0.._TS_LEVELS one at a time.

    Yields (level, h, sides): the level's step and, for the nodes
    accumulating at b and then those accumulating at a, the (abscissas,
    weights) that the level adds, a side with no node left out.  Abscissas
    are formed from their exact distance to the endpoint, so for an
    interval starting at 0 they are correctly rounded tiny numbers rather
    than 0 itself.  The level's estimate is h times the weighted sum, plus
    half the previous estimate after level 0.
    """
    for level in range(_TS_LEVELS + 1):
        u, h = _ts_nodes(level)
        v = 0.5 * math.pi * np.sinh(u)
        w = 0.5 * (b - a) * 0.5 * math.pi * np.cosh(u) / np.square(np.cosh(v))
        # Distances to either endpoint, stable for large v: 1 - tanh v = 2/(1+e^{2v}).
        dist = (b - a) / (1.0 + np.exp(2.0 * v))
        sides = []
        # The centre node is counted once, on the first side.
        for x, centre in ((b - dist, True), (a + dist, level > 0)):
            sel = (w > 0.0) & (x > a) & (x < b) & (centre | (u > 0.0))
            if np.any(sel):
                sides.append((x[sel], w[sel]))
        yield level, h, sides


def tanh_sinh(f, a: float, b: float, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Double-exponential rule on [a, b]; robust to endpoint singularities.

    f never sees an endpoint (see _ts_levels).  It is called once for
    levels 0-3 and then once per level, with both sides' nodes.  For an
    (nodes, m) integrand the levels go on, up to _TS_LEVELS, until every
    component meets spec.budget(|value_j|).  a == b gives 0; DomainError
    when no double lies strictly between a and b (also when a > b);
    ConvergenceError when f gives a value that is not finite, as a
    Gauss-Kronrod panel does, or the last level misses the budget.
    """
    spec = spec or QuadratureSpec()
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    if not math.nextafter(a, math.inf) < b:
        raise DomainError(f"tanh_sinh needs a double strictly between a < b; got [{a!r}, {b!r}]")
    prev = None
    err = math.inf
    nodes = 0
    levels = _ts_levels(a, b)
    # Levels 0-3 always run (the test below needs level >= 3): one call.
    batch = list(itertools.islice(levels, 4))
    while batch:
        y = np.asarray(f(np.concatenate([x for _, _, sides in batch for x, _ in sides])))
        if not np.isfinite(y).all():
            raise ConvergenceError(f"non-finite integrand value on [{a:g}, {b:g}]")
        ndim = y.ndim
        y = y.reshape(y.shape[0], -1)
        nodes += y.shape[0]
        start = 0
        for level, h, sides in batch:
            contrib = 0.0 + 0.0j
            for x, w in sides:
                # An (n, 1) sum along axis 0 adds in np.sum's order, so a
                # 1-D integrand keeps its scalar arithmetic.
                contrib += (w[:, None] * y[start:start + x.size]).sum(axis=0)
                start += x.size
            total = h * contrib if level == 0 else 0.5 * total + h * contrib
            if prev is not None:
                err = _cabs(total - prev)
                if (err <= spec.budget(_cabs(total))).all() and level >= 3:
                    if ndim == 1:
                        return QuadratureResult(complex(total[0]), float(err[0]), nodes)
                    return QuadratureResult(total, err, nodes)
            prev = total
        batch = list(itertools.islice(levels, 1))
    raise ConvergenceError(
        f"tanh-sinh failed to reach tolerance on [{a:g}, {b:g}]: "
        f"last refinement changed the value by {np.max(err):.3e}")


def integrate_singular_head(f, T: float, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate f over (0, T], T >= 1, for f that may carry an integrable
    singularity at 0: tanh-sinh on (0, 1], then Gauss-Kronrod on [1, T]
    (none at T = 1).  Values and errors add, head first."""
    head = tanh_sinh(f, 0.0, 1.0, spec)
    if T == 1.0:
        return head
    rest = integrate_finite(f, 1.0, T, spec)
    return QuadratureResult(head.value + rest.value, head.err_estimate + rest.err_estimate,
                            head.nodes_used + rest.nodes_used)


# The envelope's rate as a fraction of its bound's: the rest pays for t^p.
_RATE_FRACTION = 0.9


def _envelope(bound, a: float):
    """(C, r) with |f(t)| <= C e^{-rt} on t >= a from bound = (A, p, b), a
    bound |f(t)| <= A t^p e^{-bt} there: r = _RATE_FRACTION b, and C is A
    times the largest t^p e^{-(1 - _RATE_FRACTION) bt} over t >= a.
    DecayError unless C and r are positive and finite."""
    A, p, b = bound
    slack = (1.0 - _RATE_FRACTION) * b
    t = max(a, p / slack) if slack > 0.0 else a
    C, r = A * math.exp(p * math.log(t) - slack * t), _RATE_FRACTION * b
    if not (0.0 < C < math.inf and 0.0 < r < math.inf):
        raise DecayError(f"tail bound {tuple(bound)} gives no positive, finite envelope")
    return C, r


def integrate_semi_infinite(f, a: float, bound,
                            spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate f over [a, inf), a > 0, under the caller's tail bound
    (A, p, b): |f(t)| <= A t^p e^{-bt} on t >= a, through its envelope
    C e^{-rt} (_envelope).

    The cutoff is chosen so the envelope's tail consumes at most a tenth of
    the tolerance budget, and lies at least 1 past a; the rest goes to the
    finite-range panels, laid out geometrically so oscillation near a and
    slow variation far out are both resolved.  The segments refine in
    lockstep, one call of f per round, each as integrate_finite would.

    bound may also be a list of triples, one per component of an
    (nodes, m) integrand (or one for a (nodes,) integrand): the cutoff is
    the largest of theirs, each component gets its own envelope's tail at
    that cutoff, and each must pass the final check against its own budget.
    """
    spec = spec or QuadratureSpec()
    if not a > 0.0:
        raise DomainError(f"a tail bound holds on t >= a > 0; got a = {a!r}")
    tol = spec.abs_tol
    envelopes = [_envelope(b, a) for b in (bound if isinstance(bound, list) else [bound])]
    T = max(a + 1.0, *(-math.log(0.1 * tol * r / C) / r for C, r in envelopes))
    trunc = [C * math.exp(-r * T) / r for C, r in envelopes]

    # Geometric breakpoints: unit-ish first segment, then doubling spans.
    breaks, step = [a], 1.0
    while breaks[-1] + step < T:
        breaks.append(breaks[-1] + step)
        step *= 2.0
    breaks.append(T)

    # Child panels share the tolerance; each gets an equal slice.
    n_seg = len(breaks) - 1
    seg_spec = QuadratureSpec(max(tol / max(n_seg, 1), 1e-300), spec.rel_tol, spec.max_panels)
    total, err, nodes = 0.0 + 0.0j, 0.0, 0
    for seg in _gauss_kronrod(f, breaks, seg_spec):
        total, err, nodes = total + seg.value, err + seg.err_estimate, nodes + seg.nodes_used
    if np.ndim(total) == 0:
        result = QuadratureResult(complex(total), err, nodes, truncation_bound=trunc[0])
    else:
        result = QuadratureResult(total, err, nodes, truncation_bound=np.array(trunc))
    over = result.total_error > spec.budget(_cabs(np.asarray(total))) * 10.0
    if np.any(over):
        raise ConvergenceError(
            f"semi-infinite integral error {np.max(result.total_error):.3e} "
            f"exceeds 10x the requested budget")
    return result


def integrate_half_line(f, bound, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate f over (0, inf): (0, 1] through integrate_singular_head,
    so f may carry an integrable singularity at 0, and [1, inf) through
    integrate_semi_infinite under bound, the caller's (A, p, b) with
    |f(t)| <= A t^p e^{-bt} on t >= 1 (or a list with one per component of
    an (nodes, m) integrand).  Nothing checks the bound: its caller
    derives it."""
    spec = spec or QuadratureSpec()
    head = integrate_singular_head(f, 1.0, spec)
    tail = integrate_semi_infinite(f, 1.0, bound, spec)
    return QuadratureResult(head.value + tail.value,
                            head.err_estimate + tail.err_estimate,
                            head.nodes_used + tail.nodes_used,
                            truncation_bound=tail.truncation_bound)


# Half-period segments of an alternating tail, summed before the
# averaging takes the limit.
_SEGMENTS = 96


def integrate_alternating_tail(g, u0: float, half_period: float) -> QuadratureResult:
    """Integrate g over [u0, inf) for g that alternates in sign on
    consecutive half-period windows with a decaying envelope.

    The _SEGMENTS windows are the columns of one vector integral over
    [0, 1] (g takes a 1-D array of points; nodes_used counts its nodes).
    Repeated adjacent averaging of the partial sums from the
    _SEGMENTS // 3-th on takes the limit.  Its error is the last change,
    floored at one rounding of the largest partial sum per level: the
    last two averages can coincide, which would otherwise claim 0.
    """
    seg_spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12, max_panels=64)
    starts = u0 + half_period * np.arange(_SEGMENTS)

    def f(s):
        u = np.add.outer(half_period * s, starts)
        return half_period * g(u.ravel()).reshape(u.shape)

    segs = integrate_finite(f, 0.0, 1.0, seg_spec)
    arr = np.cumsum(segs.value)[_SEGMENTS // 3:]
    floor = float(arr.size * _EPS * np.max(np.abs(arr)))
    est = complex(arr[-1])
    while arr.size > 1:
        arr = 0.5 * (arr[1:] + arr[:-1])
        prev, est = est, complex(arr[-1])
    return QuadratureResult(est, max(abs(est - prev), floor), segs.nodes_used)
