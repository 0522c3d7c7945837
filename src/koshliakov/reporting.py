"""Artifact emission: JSON verification reports, sweep CSV, and SVG charts.

CSV output must be byte-stable across reruns with identical inputs, so all
float formatting goes through repr (shortest round-trip form, deterministic
for a given value) and rows are written in alpha order regardless of how
the sweep was scheduled.  The SVG is a minimal hand-emitted SVG 1.1 line
chart; no plotting dependency.
"""

from __future__ import annotations

import math

from .identities import VerificationReport

CSV_HEADER = "alpha,lhs_re,lhs_im,rhs_re,rhs_im,abs_diff,rel_diff"


def report_json(report: VerificationReport) -> str:
    import json  # here: a call that writes no report never loads json
    return json.dumps(report.to_dict())


def _fmt(v: float) -> str:
    return "nan" if math.isnan(v) else repr(float(v))


def _rows(alphas: list, reports: list) -> list[tuple]:
    """(alpha, lhs, rhs, abs_diff, rel_diff) per row in alpha order, nan
    where the report is None.  The key sorts on alpha alone, since complex
    sides have no order: a degenerate grid ties, and keeps grid order."""
    nan, cnan = math.nan, complex(math.nan, math.nan)
    rows = [(float(a), cnan, cnan, nan, nan) if r is None else
            (float(a), complex(r.lhs), complex(r.rhs), float(r.abs_diff), float(r.rel_diff))
            for a, r in zip(alphas, reports)]
    return sorted(rows, key=lambda row: row[0])


def csv_lines(alphas: list, reports: list) -> list[str]:
    lines = [CSV_HEADER]
    for alpha, lhs, rhs, abs_diff, rel_diff in _rows(alphas, reports):
        lines.append(",".join([
            _fmt(alpha), _fmt(lhs.real), _fmt(lhs.imag), _fmt(rhs.real), _fmt(rhs.imag),
            _fmt(abs_diff), _fmt(rel_diff),
        ]))
    return lines


def write_csv(path: str, alphas: list, reports: list) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(csv_lines(alphas, reports)) + "\n")


# ---------------------------------------------------------------------------
# SVG line chart
# ---------------------------------------------------------------------------

_PANEL_W = 380.0
_PANEL_H = 260.0
_MARGIN_L = 64.0
_MARGIN_T = 40.0
_GAP = 96.0
_DOC_W = 2 * _PANEL_W + _MARGIN_L + _GAP + 24.0
_DOC_H = _PANEL_H + _MARGIN_T + 56.0


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not (hi > lo):
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


class _Panel:
    """One cartesian panel: y may be linear or log10-transformed."""

    def __init__(self, x0: float, title: str, ylabel: str,
                 points: list[tuple[float, float]], log_y: bool):
        self.x0, self.title, self.ylabel, self.log_y = x0, title, ylabel, log_y
        self.points = [(a, v) for a, v in points if not math.isnan(v)]
        if log_y:
            self.points = [(a, math.log10(max(v, 1e-18)))
                           for a, v in self.points]

    def _ranges(self):
        if self.points:
            xs = [p[0] for p in self.points]
            ys = [p[1] for p in self.points]
            xlo, xhi = min(xs), max(xs)
            ylo, yhi = min(ys), max(ys)
        else:
            xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
        if xhi - xlo < 1e-300:
            xlo, xhi = xlo - 0.5, xhi + 0.5
        pad = max((yhi - ylo) * 0.08, 1e-300)
        if yhi - ylo < 1e-12 * max(abs(ylo), 1.0):
            pad = max(abs(ylo) * 1e-6, 0.5)
        return xlo, xhi, ylo - pad, yhi + pad

    def emit(self) -> list[str]:
        xlo, xhi, ylo, yhi = self._ranges()
        x0, y0 = self.x0, _MARGIN_T

        def sx(a):
            return x0 + (a - xlo) / (xhi - xlo) * _PANEL_W

        def sy(v):
            return y0 + _PANEL_H - (v - ylo) / (yhi - ylo) * _PANEL_H

        out = []
        out.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{_PANEL_W:.2f}" '
                   f'height="{_PANEL_H:.2f}" fill="none" stroke="#333" '
                   'stroke-width="1"/>')
        out.append(f'<text x="{x0 + _PANEL_W / 2:.2f}" y="{y0 - 14:.2f}" '
                   'text-anchor="middle" font-size="14">'
                   f'{_esc(self.title)}</text>')
        for t in _ticks(xlo, xhi):
            px = sx(t)
            out.append(f'<line x1="{px:.2f}" y1="{y0 + _PANEL_H:.2f}" '
                       f'x2="{px:.2f}" y2="{y0 + _PANEL_H + 5:.2f}" '
                       'stroke="#333" stroke-width="1"/>')
            out.append(f'<text x="{px:.2f}" y="{y0 + _PANEL_H + 20:.2f}" '
                       f'text-anchor="middle" font-size="11">{t:.3g}</text>')
        for t in _ticks(ylo, yhi):
            py = sy(t)
            label = f"1e{t:.1f}" if self.log_y else f"{t:.6g}"
            out.append(f'<line x1="{x0 - 5:.2f}" y1="{py:.2f}" '
                       f'x2="{x0:.2f}" y2="{py:.2f}" stroke="#333" '
                       'stroke-width="1"/>')
            out.append(f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" '
                       f'text-anchor="end" font-size="11">{label}</text>')
        out.append(f'<text x="{x0 + _PANEL_W / 2:.2f}" '
                   f'y="{y0 + _PANEL_H + 40:.2f}" text-anchor="middle" '
                   'font-size="12">alpha</text>')
        out.append(f'<text x="{x0 - 52:.2f}" y="{y0 + _PANEL_H / 2:.2f}" '
                   'text-anchor="middle" font-size="12" transform="rotate(-90 '
                   f'{x0 - 52:.2f} {y0 + _PANEL_H / 2:.2f})">'
                   f'{_esc(self.ylabel)}</text>')
        if self.points:
            coords = " ".join(f"{sx(a):.2f},{sy(v):.2f}"
                              for a, v in sorted(self.points))
            out.append(f'<polyline points="{coords}" fill="none" '
                       'stroke="#1f6fb2" stroke-width="1.5"/>')
        return out


def svg_document(alphas: list, reports: list, identity_id: str) -> str:
    """Two-panel chart: abs_diff (log scale) and the quotient lhs/rhs vs
    alpha.  Rows with NaN payloads are dropped from the polylines but keep
    their place in the CSV."""
    rows = _rows(alphas, reports)
    diff_pts = [(alpha, abs_diff) for alpha, _, _, abs_diff, _ in rows]
    quot_pts = [(alpha, (lhs / rhs).real if abs(rhs) > 0 and not math.isnan(rhs.real)
                 else math.nan) for alpha, lhs, rhs, _, _ in rows]
    left = _Panel(_MARGIN_L, f"{identity_id}: abs_diff", "abs diff (log10)",
                  diff_pts, log_y=True)
    right = _Panel(_MARGIN_L + _PANEL_W + _GAP, f"{identity_id}: lhs/rhs",
                   "Re(lhs/rhs)", quot_pts, log_y=False)
    body = "\n".join(left.emit() + right.emit())
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_DOC_W:.0f}" height="{_DOC_H:.0f}" '
        f'viewBox="0 0 {_DOC_W:.0f} {_DOC_H:.0f}">\n'
        f'{body}\n</svg>\n'
    )


def write_svg(path: str, alphas: list, reports: list, identity_id: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(svg_document(alphas, reports, identity_id))
