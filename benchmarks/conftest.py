"""Shared benchmark infrastructure.

Every bench regenerates one table or figure of the paper and both
prints it and writes it to ``benchmarks/out/<name>.txt`` so results
survive pytest's output capture.  Rows typically carry a paper value, a
measured/computed value, and their ratio.

The simulator's own speed is measured by the end-to-end benchmark
(``benchmarks/e2e``), not here.
"""

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def format_table(title: str, headers: list[str], rows: list[list], notes: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    if notes:
        lines.append("")
        lines.append(notes)
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


@pytest.fixture
def report_table():
    """Write a result table to benchmarks/out/ and stdout."""

    def write(name: str, title: str, headers: list[str], rows: list[list],
              notes: str = "") -> str:
        text = format_table(title, headers, rows, notes)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return text

    return write
