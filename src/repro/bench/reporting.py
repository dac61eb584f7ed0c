"""Result tables and formatting helpers for the benchmark harness."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence


def update_report(
    path: Path, replace_section: Callable[[Dict[str, Any]], None]
) -> Dict[str, Any]:
    """Read the shared JSON report at ``path``, replace one section, write it.

    ``BENCH_PERF.json`` is shared across experiments: each experiment's
    ``replace_section`` rewrites only the section it owns in the loaded
    document, so every other section is carried forward untouched.  A
    missing or unreadable file starts from an empty document.  Returns the
    document as written.
    """
    document: Dict[str, Any] = {}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            previous = None
        if isinstance(previous, dict):
            document = previous
    replace_section(document)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def format_si(value: float, unit: str = "") -> str:
    """Human-readable SI formatting (1536 → ``1.5 k``)."""
    magnitude = abs(value)
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if magnitude >= threshold:
            return f"{value / threshold:.2f} {suffix}{unit}".rstrip()
    return f"{value:.2f} {unit}".rstrip()


def format_seconds(value: float) -> str:
    """Format a duration with an appropriate unit."""
    if value != value:  # NaN
        return "n/a"
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f} ms"
    return f"{value * 1e6:.0f} µs"


def format_bytes(value: float) -> str:
    """Format a byte count (1048576 → ``1.0 MiB``)."""
    magnitude = abs(value)
    for threshold, suffix in ((1024 ** 3, "GiB"), (1024 ** 2, "MiB"), (1024, "KiB")):
        if magnitude >= threshold:
            return f"{value / threshold:.1f} {suffix}"
    return f"{value:.0f} B"


@dataclass
class ResultTable:
    """A titled table of benchmark results with text and CSV rendering."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def render(self) -> str:
        """Fixed-width text rendering suitable for the console and EXPERIMENTS.md."""
        header = [str(column) for column in self.columns]
        body = [[self._cell(value) for value in row] for row in self.rows]
        widths = [len(column) for column in header]
        for row in body:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def render_row(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        lines = [self.title, "=" * len(self.title), render_row(header),
                 render_row(["-" * w for w in widths])]
        lines.extend(render_row(row) for row in body)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def _cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)
