"""Static SVG rendering of planar partitions.

Parts are color-coded, with their convex hulls outlined; removed points
are overdrawn with crosses.  Coordinates are converted to floats here
and only here: plots are presentation, not decisions.
"""

from __future__ import annotations

import math

from .core import Partition, PointSet, TverbergError, check_partition

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
]
WIDTH, HEIGHT, MARGIN = 640, 640, 40.0


def render_svg(
    point_set: PointSet,
    partition: Partition | None = None,
    removed_ids: frozenset[int] | None = None,
) -> str:
    if point_set.dim != 2:
        raise TverbergError(f"dimension: plotting needs 2-D, got {point_set.dim}-D")
    removed = removed_ids or frozenset()

    try:
        xs = [float(p.coords[0]) for p in point_set.points]
        ys = [float(p.coords[1]) for p in point_set.points]
    except OverflowError as exc:
        raise TverbergError("coordinate too large to plot as a float") from exc
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    if math.isinf(span_x) or math.isinf(span_y):
        raise TverbergError("coordinates span too wide to plot as floats")

    def place(p) -> tuple[float, float]:
        px = MARGIN + (float(p.coords[0]) - x0) / span_x * (WIDTH - 2 * MARGIN)
        py = HEIGHT - MARGIN - (float(p.coords[1]) - y0) / span_y * (HEIGHT - 2 * MARGIN)
        return px, py

    groups: list[tuple[str, list]] = []
    if partition is None:
        groups.append((PALETTE[0], list(point_set.points)))
    else:
        check_partition(partition, point_set.ids())
        by_id = point_set.by_id()
        for j, part in enumerate(partition):
            groups.append((PALETTE[j % len(PALETTE)], [by_id[pid] for pid in sorted(part)]))
    if not removed <= point_set.ids():
        raise TverbergError("invalid removal: ids outside the point set")

    body: list[str] = []
    for color, pts in groups:
        surviving = [p for p in pts if p.id not in removed]
        hull = _hull_2d([place(p) for p in surviving])
        if len(hull) >= 2:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in hull)
            body.append(
                f'<polygon points="{path}" fill="{color}" fill-opacity="0.15" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        for p in pts:
            x, y = place(p)
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}"/>')
    for p in point_set.points:
        if p.id in removed:
            x, y = place(p)
            body.append(
                f'<path d="M {x - 6:.2f} {y - 6:.2f} L {x + 6:.2f} {y + 6:.2f} '
                f'M {x - 6:.2f} {y + 6:.2f} L {x + 6:.2f} {y - 6:.2f}" '
                'stroke="#000000" stroke-width="2"/>'
            )

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def _hull_2d(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain convex hull, display quality only."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
