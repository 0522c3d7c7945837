"""Quadrature layer: closed forms, singular endpoints, tail models,
error-estimate honesty."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koshliakov import quadrature
from koshliakov.errors import ConvergenceError, DecayError, DomainError
from koshliakov.quadrature import (ExpDecay, QuadratureResult,
                                   QuadratureSpec, integrate_alternating_tail,
                                   integrate_finite, integrate_half_line,
                                   integrate_semi_infinite,
                                   integrate_singular_head, tail_certificate, tanh_sinh)
from koshliakov.specfun import bessel_j, bessel_k

from conftest import rel_err


def test_finite_smooth():
    r = integrate_finite(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
    assert rel_err(r.value, math.pi / 4.0) < 1e-13
    assert abs(complex(r.value) - math.pi / 4.0) <= max(r.total_error, 1e-15)


def test_finite_oscillatory():
    r = integrate_finite(lambda x: np.cos(7.0 * x), 0.0, 10.0)
    assert rel_err(r.value, math.sin(70.0) / 7.0) < 1e-12


@pytest.mark.parametrize("c", [0.2, 0.123456789, 1.0 / math.sqrt(2.0)])
def test_finite_rejects_a_non_finite_panel(c):
    # Refinement toward the interior singularity puts a node on c, where
    # the integrand is inf and the panel error nan; nan > budget is false,
    # so without the check the loop would stop as if converged.
    with pytest.warns(RuntimeWarning), pytest.raises(ConvergenceError):
        integrate_finite(lambda x: 1.0 / np.sqrt(np.abs(x - c)), 0.0, 1.0)


def test_tanh_sinh_sqrt_singularity():
    r = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert rel_err(r.value, 2.0) < 1e-13


def test_tanh_sinh_strong_power_singularity():
    # x^{-0.85}: integrable but close to the supported x^{-0.9} edge.
    r = tanh_sinh(lambda x: x ** (-0.85), 0.0, 1.0)
    assert rel_err(r.value, 1.0 / 0.15) < 1e-12


def test_tanh_sinh_log_endpoint():
    r = tanh_sinh(lambda x: np.log(x), 0.0, 1.0)
    assert rel_err(r.value, -1.0) < 1e-13


def test_singular_head_is_tanh_sinh_then_panels(monkeypatch):
    # (0, 1] by tanh-sinh, [1, T] by Gauss-Kronrod, added head first; at
    # T = 1 the head alone, with no panel call.
    def f(x):
        return 1.0 / np.sqrt(x)

    head = tanh_sinh(f, 0.0, 1.0)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "integrate_finite", None)
        assert integrate_singular_head(f, 1.0) == head
    rest = integrate_finite(f, 1.0, 4.0)
    assert integrate_singular_head(f, 4.0) == (head.value + rest.value,
                                               head.err_estimate + rest.err_estimate,
                                               head.nodes_used + rest.nodes_used, 0.0)
    assert rel_err(integrate_singular_head(f, 4.0).value, 4.0) < 1e-12


@pytest.mark.parametrize("z", [0.5, 0.75])
def test_alternating_tail_closed_form(z):
    # The integral of J_z(u) u^{z-1} over (0, inf) is 2^{z-1} Gamma(z); its
    # envelope u^{z-3/2} is the slow alternating tail of the Omega verifier.
    def g(u):
        return bessel_j(z, u) * np.power(u, z - 1.0)

    U = 20.0
    head = tanh_sinh(g, 0.0, U, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
    tail = integrate_alternating_tail(g, U, math.pi)
    exact = 2.0 ** (z - 1.0) * math.gamma(z)
    assert rel_err(head.value + tail.value, exact) < 1e-10
    assert 0.0 < tail.err_estimate < 1e-10
    # nodes_used counts the segment panels: 15 nodes each.
    assert tail.nodes_used > 0 and tail.nodes_used % 15 == 0


def test_tanh_sinh_divergent_raises():
    with pytest.raises(ConvergenceError):
        tanh_sinh(lambda x: 1.0 / x, 0.0, 1.0)


@pytest.mark.parametrize("edge", [1e-3, 1e-200])
def test_tanh_sinh_refuses_non_finite_values(edge):
    # An inf near 0 carries mass that a zeroed node would drop; below
    # 1e-200 the rest would converge to 1 as if nothing were lost.
    with pytest.raises(ConvergenceError, match="non-finite"):
        tanh_sinh(lambda x: np.where(x < edge, np.inf, 1.0), 0.0, 1.0)


# Budgets that only the roundoff floor (50 eps of a panel's mass) can miss.
_UNREACHABLE = QuadratureSpec(abs_tol=1e-300, rel_tol=0.0)


def test_finite_refuses_when_the_panel_budget_runs_out():
    with pytest.raises(ConvergenceError, match="after 4 panels"):
        integrate_finite(np.ones_like, 0.0, 1.0, _UNREACHABLE._replace(max_panels=4))


def test_finite_refuses_a_panel_that_cannot_be_split():
    # No double lies strictly between 1 and its successor.
    with pytest.raises(ConvergenceError, match="cannot be split"):
        integrate_finite(np.ones_like, 1.0, math.nextafter(1.0, 2.0), _UNREACHABLE)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_finite_refuses_infinite_endpoints(a, b):
    with pytest.raises(DomainError, match="finite endpoints"):
        integrate_finite(np.ones_like, a, b)


def test_semi_infinite_refuses_an_error_ten_times_its_budget():
    # (1 - x) e^{-x} integrates to 0 over [0, inf): each segment meets its
    # relative budget, but their floors add up far past 1e-10 of the total.
    with pytest.raises(ConvergenceError, match="10x the requested budget"):
        integrate_semi_infinite(lambda x: (1.0 - x) * np.exp(-x), 0.0, ExpDecay(1.0, 0.5),
                                QuadratureSpec(abs_tol=1e-20, rel_tol=1e-10))


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.0, 1.0 + 2.0 ** -52)])
def test_tanh_sinh_without_an_interior_node_raises(a, b):
    # A reversed interval, and one with no double strictly inside: no node
    # to evaluate f at, a typed error rather than numpy's empty concatenate.
    with pytest.raises(DomainError, match="strictly between"):
        tanh_sinh(lambda x: x, a, b)


def test_semi_infinite_exponential():
    r = integrate_semi_infinite(lambda x: np.exp(-x), 0.0,
                                decay=ExpDecay(coeff=1.0, rate=1.0))
    # The tail is cut where the certificate meets the budget, so the
    # defect must sit inside the reported total_error, not at 1e-16.
    assert abs(r.value - 1.0) <= r.total_error + 1e-14
    assert rel_err(r.value, 1.0) < 1e-9
    assert 0.0 < r.truncation_bound < 1e-10


def test_semi_infinite_gaussian_moment():
    r = integrate_semi_infinite(lambda x: x * np.exp(-x * x), 0.0,
                                decay=ExpDecay(coeff=5.0, rate=1.5))
    assert rel_err(r.value, 0.5) < 1e-12


def test_semi_infinite_bessel_k_moment():
    # int_0^inf x K_0(x) dx = 1, singular log endpoint plus exp tail.
    # |x K_0(x)| <= sqrt(pi/2) x^{1/2} e^{-x}, a certificate that cuts the
    # tail where the requested budget allows: 1e-12 is asked for.
    r = integrate_half_line(lambda x: x * np.real(bessel_k(0.0, x)),
                            tail_certificate(math.sqrt(0.5 * math.pi), 0.5, 1.0),
                            QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
    assert abs(r.value - 1.0) <= r.total_error
    assert rel_err(r.value, 1.0) < 1e-12


_S = st.floats(min_value=0.2, max_value=2.0)
_B = st.floats(min_value=0.5, max_value=20.0)


def _gamma_integrand(s, b):
    return lambda t: np.power(t, s - 1.0) * np.exp(-b * np.asarray(t))


@settings(max_examples=40)
@given(_S, _B)
def test_half_line_gamma_integral(s, b):
    # int_0^inf t^{s-1} e^{-bt} dt = Gamma(s) b^{-s}: a singular head for
    # s < 1, a tail under the certificate of the integrand itself.
    r = integrate_half_line(_gamma_integrand(s, b), tail_certificate(1.0, s - 1.0, b),
                            QuadratureSpec())
    assert abs(r.value - math.gamma(s) * b ** -s) <= r.total_error


def test_half_line_oscillating_zero_at_fit_ends():
    # sin(pi t) vanishes at t=1 and t=2, where no envelope may be read off.
    r = integrate_half_line(lambda t: np.sin(math.pi * t) * np.exp(-t),
                            tail_certificate(1.0, 0.0, 1.0))
    truth = math.pi / (1.0 + math.pi ** 2)
    assert abs(r.value - truth) <= r.total_error
    assert rel_err(r.value, truth) < 1e-10


@settings(max_examples=40)
@given(coeff=st.floats(1e-30, 1e30), power=st.floats(-3.0, 40.0), rate=st.floats(0.05, 100.0))
def test_tail_certificate_covers_its_bound(coeff, power, rate):
    # coeff t^power e^{-rate t} sits under the certificate on t >= 1, with
    # equality at the largest point of t^power e^{-(1 - fraction) rate t}.
    decay = tail_certificate(coeff, power, rate)
    assert decay.rate == quadrature._RATE_FRACTION * rate
    t = np.geomspace(1.0, 1.0 + 200.0 / rate, 500)
    bound = coeff * np.exp(power * np.log(t) - rate * t)
    assert np.all(bound <= decay.coeff * np.exp(-decay.rate * t) * (1.0 + 1e-12))


@pytest.mark.parametrize("coeff, rate", [(math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0),
                                         (0.0, 1.0), (1.0, math.inf)])
def test_exp_decay_refuses_an_unusable_certificate(coeff, rate):
    # An envelope that overflowed or came out nan would put the cutoff at
    # inf or nan.
    with pytest.raises(DecayError, match="positive, finite"):
        ExpDecay(coeff, rate)


def test_half_line_calls_f_only_through_its_rules(monkeypatch):
    # Head and tail are looked up as module names (so tracing sees them);
    # stubbed out, f is never called: nothing samples it for a fit.
    def stub(*args, **kwargs):
        return QuadratureResult(0.0, 0.0, 0)

    monkeypatch.setattr(quadrature, "tanh_sinh", stub)
    monkeypatch.setattr(quadrature, "integrate_semi_infinite", stub)
    calls = []

    def f(t):
        calls.append(np.array(t))
        return np.exp(-np.asarray(t))

    integrate_half_line(f, tail_certificate(1.0, 0.0, 1.0))
    assert calls == []


def test_spec_budget_positive():
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    assert spec.budget(1.0) >= 1e-9
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0, rel_tol=1e-9)


def test_error_estimates_are_bounds():
    # On analytically known integrals the reported error dominates the
    # true error (with a tiny float floor).
    cases = [
        (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
        (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        (lambda x: x ** 3 - 2.0 * x, -1.0, 2.0, 0.75),
    ]
    for f, a, b, truth in cases:
        r = integrate_finite(f, a, b)
        assert abs(complex(r.value) - truth) <= r.total_error + 1e-14


@given(st.lists(st.floats(0.1, 20.0), min_size=1, max_size=8))
def test_vector_integrand_per_column(ks):
    # One (nodes, m) integral of cos(k t) over a k-grid: every column
    # sits within its own error of sin(10 k)/k and meets its own budget.
    k = np.array(ks)
    spec = QuadratureSpec()
    r = integrate_finite(lambda t: np.cos(np.multiply.outer(t, k)), 0.0, 10.0, spec)
    assert r.value.shape == r.err_estimate.shape == k.shape
    assert isinstance(r.nodes_used, int)
    exact = np.sin(10.0 * k) / k
    assert np.all(np.abs(r.value - exact) <= r.err_estimate)
    assert np.all(r.err_estimate <= spec.budget(np.abs(r.value)))


def _scalar_gk(f, a, b, spec):
    """The scalar adaptive Gauss-Kronrod loop that integrate_finite ran
    before it took vector integrands: the reference for 1-D arithmetic."""
    W15, W7, EPS = quadrature._W15, quadrature._W7, np.finfo(float).eps

    def panel(pa, pb):
        c, h = 0.5 * (pa + pb), 0.5 * (pb - pa)
        y = np.asarray(f(c + h * quadrature._NODES15))
        resk = h * np.sum(W15 * y)
        resg = h * np.sum(W7 * y)
        resabs = abs(h) * float(np.sum(W15 * np.abs(y)))
        resasc = abs(h) * float(np.sum(W15 * np.abs(y - resk / (pb - pa))))
        err = abs(resk - resg)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, math.pow(200.0 * err / resasc, 1.5))
        return complex(resk), max(err, 50.0 * EPS * resabs)

    value, err = panel(a, b)
    heap, nodes = [(-err, a, b, value, err)], 15
    while err > max(spec.abs_tol, spec.rel_tol * abs(value)):
        _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lval, lerr = panel(pa, mid)
        rval, rerr = panel(mid, pb)
        nodes += 30
        value += lval + rval - pval
        err += lerr + rerr - perr
        heapq.heappush(heap, (-lerr, pa, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, mid, pb, rval, rerr))
    return value, err, nodes


def test_one_component_keeps_the_scalar_arithmetic():
    # f returning (nodes,) or (nodes, 1) refines exactly like the scalar
    # loop: same panels in the same order, same sums, bit for bit.
    cases = [
        (lambda x: np.cos(7.0 * x), 0.0, 10.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0),
        (lambda x: np.exp(1j * 3.0 * x) / (1.0 + x), 0.0, 20.0),
        (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
    ]
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    for f, a, b in cases:
        value, err, nodes = _scalar_gk(f, a, b, spec)
        one = integrate_finite(f, a, b, spec)
        col = integrate_finite(lambda x: f(x)[:, None], a, b, spec)
        assert col.value.shape == (1,)
        assert (one.value, one.err_estimate, one.nodes_used) == (value, err, nodes)
        assert (complex(col.value[0]), float(col.err_estimate[0]),
                col.nodes_used) == (value, err, nodes)


# ---------------------------------------------------------------------------
# Vector integrands on the half-line stack
# ---------------------------------------------------------------------------

_COLS = st.lists(st.floats(0.5, 6.0), min_size=1, max_size=5)


def _agree(vec, col, one):
    # Column col of a vector result and the scalar result of that column
    # differ by no more than their two budgets, spec.budget(|value|) each.
    a, b, spec = complex(vec.value[col]), one.value, QuadratureSpec()
    return abs(a - b) <= spec.budget(abs(a)) + spec.budget(abs(b))


@settings(max_examples=25)
@given(_COLS)
def test_tanh_sinh_columns_match_scalar_calls(bs):
    # cos(b x)/sqrt(x) on (0, 1]: a singular endpoint in every column.
    b = np.array(bs)
    r = tanh_sinh(lambda x: np.cos(np.multiply.outer(x, b)) / np.sqrt(x)[:, None],
                  0.0, 1.0)
    assert r.value.shape == r.err_estimate.shape == b.shape
    assert isinstance(r.nodes_used, int)
    for j, bj in enumerate(bs):
        one = tanh_sinh(lambda x: np.cos(bj * x) / np.sqrt(x), 0.0, 1.0)
        assert _agree(r, j, one)


@settings(max_examples=25)
@given(_COLS)
def test_semi_infinite_columns_match_scalar_calls(bs):
    # e^{-b t} over [0, inf) with one certificate per column: the cutoff is
    # the largest certificate's, and every column keeps its own bound.
    b = np.array(bs)
    decays = [ExpDecay(coeff=1.0, rate=bj) for bj in bs]
    r = integrate_semi_infinite(lambda t: np.exp(-np.multiply.outer(t, b)), 0.0, decays)
    T = max(1.0, *(d.cutoff_for(0.1 * QuadratureSpec().abs_tol) for d in decays))
    assert list(r.truncation_bound) == [d.tail_bound(T) for d in decays]
    for j, bj in enumerate(bs):
        one = integrate_semi_infinite(lambda t: np.exp(-bj * t), 0.0, decays[j])
        assert _agree(r, j, one)
        assert abs(r.value[j] - 1.0 / bj) <= r.total_error[j] + 1e-14


@settings(max_examples=25)
@given(_S, _COLS)
def test_half_line_columns_match_scalar_calls(s, bs):
    # t^{s-1} e^{-b t} with a certificate per column.
    b = np.array(bs)
    decays = [tail_certificate(1.0, s - 1.0, bj) for bj in bs]
    r = integrate_half_line(
        lambda t: np.power(t, s - 1.0)[:, None] * np.exp(-np.multiply.outer(t, b)), decays)
    assert r.value.shape == r.truncation_bound.shape == b.shape
    assert isinstance(r.nodes_used, int)
    for j, bj in enumerate(bs):
        one = integrate_half_line(_gamma_integrand(s, bj), decays[j])
        assert _agree(r, j, one)
        assert abs(r.value[j] - math.gamma(s) * bj ** -s) <= r.total_error[j]


def _scalar_ts(f, a, b, spec):
    """The scalar tanh-sinh loop that tanh_sinh ran before it took vector
    integrands: the reference for 1-D arithmetic."""
    half, total, prev, nodes = 0.5 * (b - a), 0.0 + 0.0j, None, 0
    for level in range(quadrature._TS_LEVELS + 1):
        u, h = quadrature._ts_nodes(level)
        v = 0.5 * math.pi * np.sinh(u)
        w = half * 0.5 * math.pi * np.cosh(u) / np.square(np.cosh(v))
        dist = (b - a) / (1.0 + np.exp(2.0 * v))
        contrib = 0.0 + 0.0j
        for x, centre in ((b - dist, True), (a + dist, level > 0)):
            sel = (w > 0.0) & (x > a) & (x < b) & (centre | (u > 0.0))
            y = np.asarray(f(x[sel]))
            contrib += np.sum(w[sel] * np.where(np.isfinite(y), y, 0.0))
            nodes += int(np.count_nonzero(sel))
        total = h * contrib if level == 0 else 0.5 * total + h * contrib
        if prev is not None:
            err = abs(total - prev)
            if err <= max(spec.abs_tol, spec.rel_tol * abs(total)) and level >= 3:
                return complex(total), err, nodes
        prev = total
    raise AssertionError("reference loop did not converge")


def _scalar_half_line(f, decay, spec):
    """integrate_half_line before it took vector integrands, with the
    reference head and integrate_finite's (pinned) scalar tail panels."""
    head = _scalar_ts(f, 0.0, 1.0, spec)
    T = max(2.0, decay.cutoff_for(0.1 * spec.abs_tol))
    breaks, step = [1.0], 1.0
    while breaks[-1] + step < T:
        breaks.append(breaks[-1] + step)
        step *= 2.0
    breaks.append(T)
    seg = QuadratureSpec(abs_tol=spec.abs_tol / (len(breaks) - 1), rel_tol=spec.rel_tol)
    total, err, nodes = 0.0 + 0.0j, 0.0, head[2]
    for lo, hi in zip(breaks, breaks[1:]):
        r = integrate_finite(f, lo, hi, seg)
        total, err, nodes = total + r.value, err + r.err_estimate, nodes + r.nodes_used
    return head[0] + total, head[1] + err, nodes, decay.tail_bound(T)


def test_one_component_half_line_keeps_the_scalar_arithmetic():
    # f returning (nodes,) or (nodes, 1) gives, through tanh_sinh and
    # integrate_half_line, the numbers of the scalar loops bit for bit.
    cases = [
        (lambda x: 1.0 / np.sqrt(x) * np.exp(-x), tail_certificate(1.0, -0.5, 1.0)),
        (lambda x: np.log(x) * np.exp(-2.0 * x), tail_certificate(1.0, 1.0, 2.0)),
        (lambda x: np.exp((1j - 1.0) * x) * np.power(x, -0.3), tail_certificate(1.0, -0.3, 1.0)),
        (lambda x: np.sin(math.pi * x) * np.exp(-x), tail_certificate(1.0, 0.0, 1.0)),
    ]
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    for f, decay in cases:
        head = _scalar_ts(f, 0.0, 1.0, spec)
        one = tanh_sinh(f, 0.0, 1.0, spec)
        col = tanh_sinh(lambda x: f(x)[:, None], 0.0, 1.0, spec)
        assert type(one.value) is complex and type(one.err_estimate) is float
        assert (one.value, one.err_estimate, one.nodes_used) == head
        assert (complex(col.value[0]), float(col.err_estimate[0]), col.nodes_used) == head

        ref = _scalar_half_line(f, decay, spec)
        one = integrate_half_line(f, decay, spec)
        col = integrate_half_line(lambda x: f(x)[:, None], decay, spec)
        assert type(one.value) is complex
        assert (one.value, one.err_estimate, one.nodes_used,
                one.truncation_bound) == ref
        assert (complex(col.value[0]), float(col.err_estimate[0]), col.nodes_used,
                float(col.truncation_bound[0])) == ref


# ---------------------------------------------------------------------------
# One call of f per refinement round
# ---------------------------------------------------------------------------

def _recording(f):
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)

    return g, calls


@pytest.mark.parametrize("f, n_calls", [(lambda x: x ** (-0.85), 1),
                                        (lambda x: np.cos(40.0 * x) / np.sqrt(x), 3),
                                        (lambda x: 1.0 / (1e-2 + x * x), 3)])
def test_tanh_sinh_calls_f_once_per_level_after_level_3(f, n_calls):
    g, calls = _recording(f)
    r = tanh_sinh(g, 0.0, 1.0)
    sizes = [sum(x.size for x, _ in sides)
             for _, _, sides in quadrature._ts_levels(0.0, 1.0)]
    # Levels 0-3 in the first call, then one level per call.
    assert len(calls) == n_calls
    assert [x.size for x in calls] == [sum(sizes[:4])] + sizes[4:len(calls) + 3]
    assert sum(x.size for x in calls) == r.nodes_used


@pytest.mark.parametrize("f, a, b", [(lambda x: np.cos(7.0 * x), 0.0, 10.0),
                                     (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0)])
def test_integrate_finite_calls_f_once_per_split(f, a, b):
    g, calls = _recording(f)
    r = integrate_finite(g, a, b)
    # The first panel, then both halves of each split panel in one call.
    assert len(calls) > 2
    assert [x.size for x in calls] == [15] + [30] * (len(calls) - 1)
    for x in calls[1:]:
        assert x[14] < x[15] and np.all(np.diff(x) > 0.0)
    assert 15 * (2 * len(calls) - 1) == r.nodes_used


def test_integrate_semi_infinite_calls_f_once_per_round():
    # Every segment's first panel in one call; then each round splits one
    # panel of every segment still above its budget, so rounds only shrink.
    g, calls = _recording(lambda t: np.cos(3.0 * t) * np.exp(-0.5 * t))
    r = integrate_semi_infinite(g, 0.0, ExpDecay(coeff=1.0, rate=0.5))
    sizes = [x.size for x in calls]
    assert sizes[0] % 15 == 0 and sizes[0] > 15
    assert all(s % 30 == 0 for s in sizes[1:])
    assert sizes[1:] == sorted(sizes[1:], reverse=True) and sizes[-1] < sizes[1]
    assert sum(sizes) == r.nodes_used


_LOCKSTEP = [
    (lambda x: np.cos(7.0 * x) / (1.0 + x), [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 31.5]),
    (lambda x: np.exp((1j - 0.3) * x), [1.0, 2.0, 3.0, 5.0, 9.0, 17.0, 33.0, 60.0]),
    (lambda x: np.sqrt(np.abs(x - 0.3)) * np.exp(-x), [0.0, 1.0, 2.0, 4.0, 8.0]),
    (lambda x: np.cos(np.multiply.outer(x, [0.5, 3.0, 11.0])), [0.0, 1.0, 2.0, 4.0, 7.0]),
]


@pytest.mark.parametrize("f, breaks", _LOCKSTEP)
def test_lockstep_segments_match_solo_integrals(f, breaks):
    # Refined in lockstep, each segment takes the panels integrate_finite
    # takes on it alone: the same value, error and node count, bit for bit.
    spec = QuadratureSpec(abs_tol=1e-12 / (len(breaks) - 1), rel_tol=1e-12)
    for r, lo, hi in zip(quadrature._gauss_kronrod(f, breaks, spec), breaks, breaks[1:]):
        one = integrate_finite(f, lo, hi, spec)
        assert type(r.value) is type(one.value)
        assert r.nodes_used == one.nodes_used
        assert np.array_equal(r.value, one.value)
        assert np.array_equal(r.err_estimate, one.err_estimate)
