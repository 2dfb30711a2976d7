"""Minimal deterministic SVG figures: layouts, heatmaps, histograms,
convergence traces.

Documents are assembled as plain text with no timestamps or random ids,
so identical inputs give byte-identical files (the determinism contract
of the command line tools). Numbers are written with six significant
digits which is far below any visible difference.
"""

import numpy as np

MARGIN = 60.0
CANVAS = 640.0

_STOPS = np.array(
    [[68, 1, 84], [59, 82, 139], [33, 145, 140], [94, 201, 98], [253, 231, 37]],
    dtype=np.float64,
)


def _fmt(x):
    return f"{float(x):.6g}"


def _color(t):
    """Five-stop linear colormap on [0, 1]."""
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(_STOPS) - 1)
    i = min(int(pos), len(_STOPS) - 2)
    frac = pos - i
    rgb = (1.0 - frac) * _STOPS[i] + frac * _STOPS[i + 1]
    return "#{:02x}{:02x}{:02x}".format(*(int(round(c)) for c in rgb))


def _document(body):
    size = _fmt(CANVAS)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">\n'
        + "".join(body)
        + "</svg>\n"
    )


def _save(path, body):
    with open(path, "w") as fh:
        fh.write(_document(body))


def _text(x, y, s, size=12, anchor="start"):
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}">{s}</text>\n'
    )


def _line(x1, y1, x2, y2, color="#333333", width=1.0):
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{_fmt(width)}"/>\n'
    )


class _Frame:
    """Affine map from data coordinates onto the plot rectangle of the
    CANVAS-sized square."""

    plot_w = plot_h = CANVAS - 2 * MARGIN

    def __init__(self, x_range, y_range):
        self.x_lo, self.x_hi = float(x_range[0]), float(x_range[1])
        self.y_lo, self.y_hi = float(y_range[0]), float(y_range[1])
        if self.x_hi <= self.x_lo or self.y_hi <= self.y_lo:
            raise ValueError("empty axis range")

    def x(self, v):
        return MARGIN + (float(v) - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def y(self, v):
        # SVG y grows downward
        return CANVAS - MARGIN - (float(v) - self.y_lo) / (self.y_hi - self.y_lo) * self.plot_h

    def axes(self, title, xlabel, ylabel):
        parts = [
            f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(self.plot_w)}" '
            f'height="{_fmt(self.plot_h)}" fill="none" stroke="#333333"/>\n',
            _text(CANVAS / 2, MARGIN - 20, title, size=14, anchor="middle"),
            _text(CANVAS / 2, CANVAS - 12, xlabel, anchor="middle"),
            f'<text x="16" y="{_fmt(CANVAS / 2)}" font-family="monospace" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 16 {_fmt(CANVAS / 2)})">{ylabel}</text>\n',
        ]
        for v in np.linspace(self.x_lo, self.x_hi, 5):
            px = self.x(v)
            parts.append(_line(px, CANVAS - MARGIN, px, CANVAS - MARGIN + 5))
            parts.append(_text(px, CANVAS - MARGIN + 20, _fmt(v), size=10, anchor="middle"))
        for v in np.linspace(self.y_lo, self.y_hi, 5):
            py = self.y(v)
            parts.append(_line(MARGIN - 5, py, MARGIN, py))
            parts.append(_text(MARGIN - 8, py + 3, _fmt(v), size=10, anchor="end"))
        return parts


def _edges(nodes):
    """Cell boundaries at node midpoints (handles non-uniform axes)."""
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.size == 1:
        half = max(abs(nodes[0]) * 0.05, 0.5)
        return np.array([nodes[0] - half, nodes[0] + half])
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    first = nodes[0] - (mids[0] - nodes[0])
    last = nodes[-1] + (nodes[-1] - mids[-1])
    return np.concatenate([[first], mids, [last]])


def write_layout(path, positions, radius, half_width, title):
    """Farm box with device discs drawn to scale, first device marked."""
    positions = np.asarray(positions, dtype=np.float64)
    frame = _Frame((0.0, half_width), (-half_width, half_width))
    body = frame.axes(title, "x [m]", "y [m]")
    px_per_m = frame.plot_w / half_width
    for d, (x, y) in enumerate(positions):
        fill = "#c23b22" if d == 0 else "#2a6f97"
        body.append(
            f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" '
            f'r="{_fmt(max(radius * px_per_m, 2.0))}" fill="{fill}" fill-opacity="0.8"/>\n'
        )
        body.append(_text(frame.x(x) + 6, frame.y(y) - 6, str(d), size=10))
    _save(path, body)


def write_heatmap(path, x_nodes, y_nodes, values, title, xlabel, ylabel):
    """Colored cell matrix; values[i, j] maps to (x_nodes[i], y_nodes[j]).

    Not-a-number cells are drawn grey (infeasible/masked regions).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(x_nodes), len(y_nodes)):
        raise ValueError("heatmap values do not match the axis nodes")
    xe, ye = _edges(x_nodes), _edges(y_nodes)
    frame = _Frame((xe[0], xe[-1]), (ye[0], ye[-1]))
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    body = []
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            v = values[i, j]
            fill = "#dddddd" if not np.isfinite(v) else _color((v - lo) / span)
            x0, x1 = frame.x(xe[i]), frame.x(xe[i + 1])
            y0, y1 = frame.y(ye[j + 1]), frame.y(ye[j])
            body.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(y1 - y0)}" fill="{fill}"/>\n'
            )
    body += frame.axes(title, xlabel, ylabel)
    body.append(_text(CANVAS - MARGIN, MARGIN - 6, f"min {_fmt(lo)}  max {_fmt(hi)}", size=10, anchor="end"))
    _save(path, body)


def write_histogram(path, values, title, xlabel, marker=None, marker_label=""):
    """30-bin histogram with an optional vertical marker line."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("histogram needs at least one value")
    counts, edges = np.histogram(values, bins=30)
    x_lo, x_hi = edges[0], edges[-1]
    if marker is not None:
        x_lo, x_hi = min(x_lo, marker), max(x_hi, marker)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    frame = _Frame((x_lo, x_hi), (0.0, max(counts.max(), 1)))
    body = frame.axes(title, xlabel, "count")
    base = frame.y(0.0)
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        if c == 0:
            continue
        top = frame.y(c)
        body.append(
            f'<rect x="{_fmt(frame.x(e0))}" y="{_fmt(top)}" '
            f'width="{_fmt(frame.x(e1) - frame.x(e0))}" height="{_fmt(base - top)}" '
            f'fill="#2a6f97" stroke="#ffffff" stroke-width="0.5"/>\n'
        )
    if marker is not None:
        mx = frame.x(marker)
        body.append(_line(mx, MARGIN, mx, base, color="#c23b22", width=2.0))
        if marker_label:
            body.append(_text(mx + 4, MARGIN + 14, marker_label, size=10))
    _save(path, body)


def write_convergence(path, history):
    """Best and median fitness per generation as polylines."""
    if not history:
        raise ValueError("empty history")
    gens = [h["generation"] for h in history]
    best = [h["best_fitness"] for h in history]
    median = [h["median_fitness"] for h in history]
    lo = min(best)
    hi = max(max(median), max(best))
    if hi <= lo:
        hi = lo + 1.0
    frame = _Frame((gens[0], max(gens[-1], gens[0] + 1)), (lo, hi))
    body = frame.axes("convergence", "generation", "fitness")

    def poly(series, color):
        pts = " ".join(f"{_fmt(frame.x(g))},{_fmt(frame.y(v))}" for g, v in zip(gens, series))
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'

    body.append(poly(np.clip(median, lo, hi), "#999999"))
    body.append(poly(best, "#c23b22"))
    body.append(_text(CANVAS - MARGIN, MARGIN - 6, "best red, median grey", size=10, anchor="end"))
    _save(path, body)


def write_scatter(path, pairs, title, xlabel, ylabel):
    """One-to-one scatter with the identity line (benchmark figure)."""
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("scatter needs an (n, 2) array")
    lo = float(pairs.min())
    hi = float(pairs.max())
    if hi <= lo:
        hi = lo + 1.0
    frame = _Frame((lo, hi), (lo, hi))
    body = frame.axes(title, xlabel, ylabel)
    body.append(_line(frame.x(lo), frame.y(lo), frame.x(hi), frame.y(hi), color="#999999"))
    for x, y in pairs:
        body.append(
            f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" r="2" '
            f'fill="#2a6f97" fill-opacity="0.6"/>\n'
        )
    _save(path, body)
