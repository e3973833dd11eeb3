"""Minimal SVG output for closed image curves."""

from __future__ import annotations

import numpy as np


def curve_svg(values: np.ndarray) -> str:
    """A black closed polyline through the sample points, in a 640-pixel square view.

    The vertical axis is flipped so the picture uses mathematical orientation.
    """
    values = np.asarray(values, dtype=complex)
    x, y = values.real, -values.imag
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    span = max(x1 - x0, y1 - y0, 1e-12)
    pad = 0.05 * span
    size = 640
    scale = size / (span + 2 * pad)
    px = (x - x0 + pad + (span - (x1 - x0)) / 2) * scale
    py = (y - y0 + pad + (span - (y1 - y0)) / 2) * scale
    pts = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(px, py))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'  <polygon points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        f"</svg>\n"
    )
