"""Deterministic artifact writers: CSV, JSON, run manifest, simple SVG.

Numeric formatting is fixed so reruns with the same seed produce
byte-identical files.  The SVG writer is intentionally minimal (polylines
on log/linear axes) to keep plotting dependency-free.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

#: size of every SVG chart, px
SVG_WIDTH = 640
SVG_HEIGHT = 440


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def write_csv(path: str, header: list[str], rows) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")
    return path


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: str, command: str, config: dict,
                   provenance: dict, files: list[str]) -> str:
    """Record what produced the artifacts in a directory."""
    import platform

    import numpy

    from . import __version__

    cfg_blob = json.dumps(config, sort_keys=True).encode()
    manifest = {
        "command": command,
        "config": config,
        "config_digest": hashlib.sha256(cfg_blob).hexdigest(),
        "config_provenance": provenance,
        "seed": config.get("seed"),
        "versions": {
            "fefetsim": __version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
        "artifacts": [
            {"file": os.path.relpath(f, out_dir), "sha256": sha256_of(f)}
            for f in sorted(files)
        ],
    }
    return write_json(os.path.join(out_dir, "manifest.json"), manifest)


def svg_line_plot(path: str, series: dict[str, list[tuple[float, float]]],
                  title: str, x_label: str, y_label: str,
                  log_x: bool = False, log_y: bool = False) -> str:
    """Write a self-contained SVG with one polyline per named series."""
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 60
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    def tx(v):
        return math.log10(v) if log_x else v

    def ty(v):
        return math.log10(v) if log_y else v

    pts_all = [(tx(x), ty(y)) for pts in series.values() for x, y in pts]
    xs = [p[0] for p in pts_all] or [0.0, 1.0]
    ys = [p[1] for p in pts_all] or [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return margin + (tx(x) - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y):
        return height - margin - (ty(y) - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<text x="{width/2:.0f}" y="{height-12}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="16" y="{height/2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height/2:.0f})">{y_label}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" '
        f'height="{height-2*margin}" fill="none" stroke="#999"/>',
    ]
    for idx, (name, pts) in enumerate(series.items()):
        color = colors[idx % len(colors)]
        path_d = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{path_d}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width-margin+4}" y="{margin+16*idx+12}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
