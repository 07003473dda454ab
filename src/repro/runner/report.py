"""Run reports: the :class:`BroadcastReport` result object and table formatting.

Experiments print the same rows the paper's analysis predicts; a tiny
formatter keeps that output dependency-free and diff-friendly.
:class:`BroadcastReport` lives here (rather than next to the runner)
because it is pure result data with no assembly dependencies — the
scenario runner returns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.budgets import BudgetAssignment
    from repro.analysis.metrics import BroadcastOutcome, MessageCosts
    from repro.network.grid import Grid
    from repro.network.node import NodeTable
    from repro.radio.budget import BudgetLedger
    from repro.radio.mac import RunStats
    from repro.types import NodeId


@dataclass
class BroadcastReport:
    """Everything a test or experiment needs from a finished run."""

    outcome: "BroadcastOutcome"
    costs: "MessageCosts"
    stats: "RunStats"
    grid: "Grid"
    table: "NodeTable"
    nodes: "Mapping[NodeId, object]"
    adversary: object
    ledger: "BudgetLedger"
    assignment: "BudgetAssignment | None" = None

    @property
    def success(self) -> bool:
        return self.outcome.success


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], *, title: str | None = None
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_render(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(parts: Sequence[str]) -> str:
        return "  ".join(part.ljust(width) for part, width in zip(parts, widths)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * width for width in widths]))
    if cells:
        out.extend(line(row) for row in cells)
    else:
        # Zero-row sweeps (e.g. an empty point list) must still render a
        # well-formed table rather than raising or printing nothing.
        out.append("(no rows)")
    return "\n".join(out)
