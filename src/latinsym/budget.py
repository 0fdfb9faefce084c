"""Work, wall-clock and memory budgets shared by every search in the package.

A search that runs out of budget raises a subclass of BudgetExceededError,
which the command line turns into exit status 3.
"""

from __future__ import annotations

import time
from typing import Optional

_UNBOUNDED = 1 << 62


class BudgetExceededError(RuntimeError):
    """Base for search aborts."""


class NodeBudgetExceededError(BudgetExceededError):
    pass


class TimeBudgetExceededError(BudgetExceededError):
    pass


class StateBudgetExceededError(BudgetExceededError):
    """A DP level or memo table outgrew its memory ceiling."""


def deadline_after(timeout_secs: Optional[float]) -> Optional[float]:
    """The time.monotonic() instant timeout_secs from now, None for no limit;
    a timeout of 0 has passed at once, and a NaN or negative one is refused."""
    if timeout_secs is not None and not timeout_secs >= 0:
        raise ValueError(f"timeout must be >= 0 seconds, got {timeout_secs}")
    return None if timeout_secs is None else time.monotonic() + timeout_secs


def check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise TimeBudgetExceededError("time budget exhausted")


class _Budget:
    """Node, wall-clock and memory accounting for the searches.  A census or
    full-count node is one DP state expanded at one cell, a cover node one
    decision-search state expanded; the completability census and the bases
    also charge each full-count state read back for its live moves, and
    each set of live states or branch of their walk expanded.  held is the
    bytes the search's tables hold, each adding what it keeps and dropping
    what it frees; orbit_enum._MAX_LEVEL_BYTES caps it."""

    __slots__ = ("max_nodes", "deadline", "nodes", "_tick", "held")

    def __init__(self, max_nodes: Optional[int], timeout_secs: Optional[float]):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"node budget must be >= 0, got {max_nodes}")
        self.max_nodes = max_nodes if max_nodes is not None else _UNBOUNDED
        self.deadline = deadline_after(timeout_secs)
        self.nodes = 0
        self._tick = 0
        self.held = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise NodeBudgetExceededError(f"node budget {self.max_nodes} exhausted")
        self._tick += 1
        if self.deadline is not None and self._tick >= 4096:
            self._tick = 0
            check_deadline(self.deadline)

    def check_time(self) -> None:
        check_deadline(self.deadline)
