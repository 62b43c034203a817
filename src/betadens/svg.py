"""Self-contained SVG 1.1 figures with deterministic bytes.

Inline styling only, generic fonts, elements emitted in insertion order and
all coordinates formatted through one fixed-precision formatter, so a figure
is byte-identical across runs of the same experiment.
"""

from __future__ import annotations

from pathlib import Path

_WIDTH = 720
_HEIGHT = 540
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 54.0


def _f(v: float) -> str:
    return f"{v:.10g}"


class SvgFigure:
    """A single set of linear axes with bars, curves and point markers."""

    def __init__(self, title="", xlabel="", ylabel=""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self._elements: list[str] = []
        self._xlim = (0.0, 1.0)
        self._ylim = (0.0, 1.0)

    def set_limits(self, xlim, ylim):
        if xlim[1] <= xlim[0] or ylim[1] <= ylim[0]:
            raise ValueError("axis limits must be increasing")
        self._xlim = (float(xlim[0]), float(xlim[1]))
        self._ylim = (float(ylim[0]), float(ylim[1]))

    def _px(self, x: float) -> float:
        lo, hi = self._xlim
        frac = (x - lo) / (hi - lo)
        return _MARGIN_LEFT + frac * (_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT)

    def _py(self, y: float) -> float:
        lo, hi = self._ylim
        frac = (y - lo) / (hi - lo)
        return _HEIGHT - _MARGIN_BOTTOM - frac * (_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM)

    def add_bars(self, edges, heights):
        base = self._py(max(self._ylim[0], 0.0))
        for left, right, h in zip(edges[:-1], edges[1:], heights):
            x0, x1 = self._px(left), self._px(right)
            y = self._py(h)
            self._elements.append(
                f'<rect x="{_f(x0)}" y="{_f(min(y, base))}" width="{_f(x1 - x0)}" '
                f'height="{_f(abs(base - y))}" fill="#9ecae1" stroke="#3182bd" '
                f'stroke-width="0.8"/>')

    def add_curve(self, xs, ys, stroke="#cc0000", width=1.6):
        pts = " ".join(f"{_f(self._px(x))},{_f(self._py(y))}" for x, y in zip(xs, ys))
        self._elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_f(width)}"/>')

    def add_points(self, xs, ys):
        for x, y in zip(xs, ys):
            self._elements.append(
                f'<circle cx="{_f(self._px(x))}" cy="{_f(self._py(y))}" '
                f'r="2.6" fill="#000000"/>')

    def _axes(self) -> list[str]:
        x0, x1 = self._px(self._xlim[0]), self._px(self._xlim[1])
        y0, y1 = self._py(self._ylim[0]), self._py(self._ylim[1])
        parts = [
            f'<line x1="{_f(x0)}" y1="{_f(y0)}" x2="{_f(x1)}" y2="{_f(y0)}" '
            f'stroke="#000000" stroke-width="1"/>',
            f'<line x1="{_f(x0)}" y1="{_f(y0)}" x2="{_f(x0)}" y2="{_f(y1)}" '
            f'stroke="#000000" stroke-width="1"/>',
        ]
        ticks = 5
        for i in range(ticks + 1):
            tx = self._xlim[0] + i * (self._xlim[1] - self._xlim[0]) / ticks
            px = self._px(tx)
            parts.append(f'<line x1="{_f(px)}" y1="{_f(y0)}" x2="{_f(px)}" '
                         f'y2="{_f(y0 + 5)}" stroke="#000000" stroke-width="1"/>')
            parts.append(f'<text x="{_f(px)}" y="{_f(y0 + 18)}" font-family="monospace" '
                         f'font-size="11" text-anchor="middle">{tx:.4g}</text>')
            ty = self._ylim[0] + i * (self._ylim[1] - self._ylim[0]) / ticks
            py = self._py(ty)
            parts.append(f'<line x1="{_f(x0 - 5)}" y1="{_f(py)}" x2="{_f(x0)}" '
                         f'y2="{_f(py)}" stroke="#000000" stroke-width="1"/>')
            parts.append(f'<text x="{_f(x0 - 8)}" y="{_f(py + 4)}" font-family="monospace" '
                         f'font-size="11" text-anchor="end">{ty:.4g}</text>')
        if self.title:
            parts.append(f'<text x="{_f(_WIDTH / 2)}" y="24" font-family="monospace" '
                         f'font-size="14" text-anchor="middle">{self.title}</text>')
        if self.xlabel:
            parts.append(f'<text x="{_f((x0 + x1) / 2)}" y="{_f(_HEIGHT - 14)}" '
                         f'font-family="monospace" font-size="12" '
                         f'text-anchor="middle">{self.xlabel}</text>')
        if self.ylabel:
            parts.append(f'<text x="16" y="{_f((y0 + y1) / 2)}" font-family="monospace" '
                         f'font-size="12" text-anchor="middle" '
                         f'transform="rotate(-90 16 {_f((y0 + y1) / 2)})">{self.ylabel}</text>')
        return parts

    def render(self) -> str:
        body = "\n".join(self._axes() + self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path) -> Path:
        """Write the figure, making its directory if need be."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render(), encoding="utf-8")
        return path
