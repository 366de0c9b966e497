"""JSON export of experiment results.

Every figure result serialises to plain JSON so EXPERIMENTS.md (or any
downstream analysis) can be regenerated from archived runs instead of
re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.harness.figures import FigureResult


def figure_to_dict(result: FigureResult) -> dict[str, Any]:
    """Plain-dict form of a FigureResult (JSON-safe)."""
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "xlabel": result.xlabel,
        "ylabel": result.ylabel,
        "scale": result.scale,
        "notes": result.notes,
        "paper_reference": {
            k: (list(v) if isinstance(v, (tuple, list)) else v)
            for k, v in result.paper_reference.items()},
        "series": [
            {"label": s.label,
             "x": list(s.x),
             "y": [float(v) for v in s.y],
             "yerr": ([float(v) for v in s.yerr]
                      if s.yerr is not None else None)}
            for s in result.series],
    }


def save_figure_json(result: FigureResult, path: str | Path) -> None:
    """Write a figure result to a JSON file."""
    Path(path).write_text(
        json.dumps(figure_to_dict(result), indent=2) + "\n")


def save_trace_json(session: Any, path: str | Path) -> Path:
    """Write an observability session as Chrome/Perfetto trace JSON.

    Thin harness-level wrapper over
    :func:`repro.obs.perfetto.write_chrome_trace` so experiment
    drivers and the CLI only import :mod:`repro.obs` when tracing is
    actually requested.
    """
    from repro.obs.perfetto import write_chrome_trace

    return write_chrome_trace(session, path)
