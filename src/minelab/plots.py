"""Deterministic SVG charts for sweep and percolation records.

Rendering is pure string assembly from the input records: fixed canvas,
fixed palette, coordinates formatted to two decimals, series sorted by
key. The same records always produce byte-identical SVG.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from .harness import SweepRecord
from .percolation import PercRecord


class EmptyInput(Exception):
    """No plottable points in the given records."""


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_WIDTH = 720
_HEIGHT = 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 24, 30, 58

_KINDS = {
    "alpha": ("mine density rho", "alpha (fraction of mines flagged)"),
    "core": ("mine density rho", "mean max core size"),
    "percolation": ("occupation parameter", "average cluster size"),
}

Point = Tuple[float, float, float]      # x, y, err


def _series(records: Sequence[object], kind: str) -> Dict[str, List[Point]]:
    series: Dict[str, List[Point]] = {}
    if kind in ("alpha", "core"):
        for r in records:
            if not isinstance(r, SweepRecord) or r.games == 0:
                continue
            if kind == "alpha":
                y, err = r.alpha_mean, r.alpha_se
            else:
                if r.maxcore_mean is None:
                    continue
                y, err = r.maxcore_mean, r.maxcore_se or 0.0
            if math.isnan(y):
                continue
            series.setdefault(f"n={r.n} {r.policy}", []).append(
                (r.rho, y, err))
    elif kind == "percolation":
        for r in records:
            if not isinstance(r, PercRecord) or r.samples == 0:
                continue
            if math.isnan(r.s_avg_mean):
                continue
            series.setdefault(f"{r.mode} n={r.n}", []).append(
                (r.param, r.s_avg_mean,
                 0.0 if math.isnan(r.s_avg_se) else r.s_avg_se))
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    for pts in series.values():
        pts.sort()
    return dict(sorted(series.items()))


def _ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    """Round ticks across [lo, hi]; render_plots pads it, so hi > lo."""
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _label(v: float) -> str:
    return format(v, ".6g")


def render_plots(records: Sequence[object], kind: str,
                 path: Union[str, Path]) -> Path:
    """Write one SVG chart of the records and return its path.

    Kinds: "alpha" and "core" take sweep aggregates (one series per
    (n, policy)); "percolation" takes percolation records (one series per
    (mode, n)). Error bars show one standard error.

    Raises EmptyInput if nothing remains to draw.
    """
    series = _series(records, kind)
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise EmptyInput(f"no plottable points for kind {kind!r}")

    xs = [p[0] for p in points]
    ylo = min(p[1] - p[2] for p in points)
    yhi = max(p[1] + p[2] for p in points)
    xlo, xhi = min(xs), max(xs)
    xpad = (xhi - xlo) * 0.05 or max(abs(xlo), 1.0) * 0.05
    ypad = (yhi - ylo) * 0.05 or max(abs(ylo), 1.0) * 0.05
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    pw = _WIDTH - _LEFT - _RIGHT
    ph = _HEIGHT - _TOP - _BOTTOM

    def sx(x: float) -> float:
        return _LEFT + (x - xlo) / (xhi - xlo) * pw

    def sy(y: float) -> float:
        return _TOP + ph - (y - ylo) / (yhi - ylo) * ph

    xlabel, ylabel = _KINDS[kind]
    out: List[str] = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
               f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    for xt in _ticks(xlo, xhi):
        px = _fmt(sx(xt))
        out.append(f'<line x1="{px}" y1="{_TOP}" x2="{px}" '
                   f'y2="{_TOP + ph}" stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{px}" y="{_TOP + ph + 18}" font-size="12" '
                   f'font-family="sans-serif" fill="#333" '
                   f'text-anchor="middle">{_label(xt)}</text>')
    for yt in _ticks(ylo, yhi):
        py = _fmt(sy(yt))
        out.append(f'<line x1="{_LEFT}" y1="{py}" x2="{_LEFT + pw}" '
                   f'y2="{py}" stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{_LEFT - 8}" y="{py}" font-size="12" '
                   f'font-family="sans-serif" fill="#333" text-anchor="end" '
                   f'dominant-baseline="middle">{_label(yt)}</text>')
    out.append(f'<rect x="{_LEFT}" y="{_TOP}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{_LEFT + pw / 2:.2f}" y="{_HEIGHT - 14}" '
               f'font-size="13" font-family="sans-serif" fill="#111" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="18" y="{_TOP + ph / 2:.2f}" font-size="13" '
               f'font-family="sans-serif" fill="#111" text-anchor="middle" '
               f'transform="rotate(-90 18 {_TOP + ph / 2:.2f})">'
               f'{ylabel}</text>')

    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y, _ in pts)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        for x, y, err in pts:
            px, py = _fmt(sx(x)), _fmt(sy(y))
            if err > 0:
                y0, y1 = _fmt(sy(y - err)), _fmt(sy(y + err))
                out.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y1}" '
                           f'stroke="{color}" stroke-width="1"/>')
                for yy in (y0, y1):
                    out.append(f'<line x1="{_fmt(sx(x) - 3)}" y1="{yy}" '
                               f'x2="{_fmt(sx(x) + 3)}" y2="{yy}" '
                               f'stroke="{color}" stroke-width="1"/>')
            out.append(f'<circle cx="{px}" cy="{py}" r="2.5" '
                       f'fill="{color}"/>')
        ly = _TOP + 14 + 16 * i
        out.append(f'<line x1="{_LEFT + pw - 150}" y1="{ly - 4}" '
                   f'x2="{_LEFT + pw - 130}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_LEFT + pw - 124}" y="{ly}" font-size="12" '
                   f'font-family="sans-serif" fill="#333">{name}</text>')

    out.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(out) + "\n")
    return path
