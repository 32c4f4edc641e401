"""Result container and text/CSV rendering for experiments."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ExperimentResult"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


@dataclass
class ExperimentResult:
    """Rows + headline metrics of one reproduced table/figure."""

    name: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    #: headline scalar metrics (e.g. {"max_speedup_rdma": 2.5})
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""
    #: run bookkeeping that may vary with cache temperature; never rendered
    telemetry: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Fixed-width text table with title and metrics."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, c in enumerate(row):
                widths[i] = max(widths[i], len(c))
        out = io.StringIO()
        out.write(f"== {self.name}: {self.title} ==\n")
        out.write("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)).rstrip() + "\n")
        out.write("  ".join("-" * w for w in widths) + "\n")
        for row in cells:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
        if self.metrics:
            out.write("-- headline: ")
            out.write(", ".join(f"{k}={_fmt(v)}" for k, v in self.metrics.items()))
            out.write("\n")
        if self.notes:
            out.write(f"-- note: {self.notes}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        """Comma-separated dump (header row first)."""
        out = io.StringIO()
        out.write(",".join(self.headers) + "\n")
        for row in self.rows:
            out.write(",".join(_fmt(c) for c in row) + "\n")
        return out.getvalue()

    def column(self, header: str) -> list[Any]:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]
