"""Work, wall-clock and memory budgets shared by every search in the package.

The caller makes one Budget and passes it to each search or listing it
runs; a function given none makes a fresh unbounded one for its own call.
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


class Budget:
    """Node, wall-clock and memory accounting for the searches and listings.

    The clock starts when the budget is made, and timeout_secs counts from
    then; a timeout of 0 has passed at once, and a NaN or negative one, or
    a negative max_nodes, is refused.  nodes is what every search run on
    the budget has spent.  A census or full-count node is one DP state
    expanded at one cell, a cover node one decision-search state expanded;
    the completability census and the bases also charge each full-count
    state read back for its live moves, and each set of live states or
    branch of their walk expanded.  The listings of perm_algebra spend no
    nodes and only check the clock.  held is the bytes the search's tables
    hold, each adding what it keeps and dropping what it frees, so a search
    that returns leaves it as it found it; orbit_enum._MAX_LEVEL_BYTES caps
    it."""

    __slots__ = ("max_nodes", "started", "deadline", "nodes", "held")

    def __init__(self, max_nodes: Optional[int] = None,
                 timeout_secs: Optional[float] = None):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"node budget must be >= 0, got {max_nodes}")
        if timeout_secs is not None and not timeout_secs >= 0:
            raise ValueError(f"timeout must be >= 0 seconds, got {timeout_secs}")
        self.max_nodes = max_nodes if max_nodes is not None else _UNBOUNDED
        self.started = time.monotonic()
        self.deadline = None if timeout_secs is None else self.started + timeout_secs
        self.nodes = 0
        self.held = 0

    @property
    def elapsed(self) -> float:
        """Seconds since the budget was made."""
        return time.monotonic() - self.started

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise NodeBudgetExceededError(f"node budget {self.max_nodes} exhausted")
        if self.deadline is not None and self.nodes & 4095 == 0:
            self.check_time()

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise TimeBudgetExceededError("time budget exhausted")
