"""Cooperative execution budgets.

A :class:`Budget` bounds one query evaluation along five axes — a
wall-clock deadline, a step/node-visit fuel, a result-cardinality cap,
a recursion-depth limit and a formula-size limit.  It is *cooperative*:
the engine hot loops (the plan IR's interpreter in
``repro.engine.ir``, the relational ``repro.engine.fo``, the all-pairs
walk, the automaton runner, and the reference evaluators) call
:func:`checkpoint` as they work, and the active budget raises a
structured :class:`~repro.resilience.errors.ResourceExhausted` the
moment a limit trips — never a wrong answer, never a partial one.

Budgets are threaded *ambiently* through an :class:`ExecutionContext`
held in a :class:`contextvars.ContextVar`, so the dozens of existing
engine entry points did not have to grow a ``budget=`` parameter each:
the facade (or the resilient executor) activates a context around the
call, and every checkpoint inside — however deep — sees it.  When no
context is active a checkpoint is a single ``ContextVar.get`` returning
``None``, which keeps the un-budgeted happy path within noise of the
pre-budget code (the ``make bench-check`` floor guards this).

The same checkpoints double as the fault-injection points of
:mod:`repro.resilience.faults`: an armed context consults its injector
first, so a seeded campaign can deterministically blow up "the Nth
unit of work" inside any engine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from .errors import ResourceExhausted

__all__ = [
    "Budget",
    "ExecutionContext",
    "activate",
    "current_context",
    "checkpoint",
]


class Budget:
    """Limits for one evaluation, with running counters.

    All limits are optional; ``Budget()`` is unlimited (but still
    counts steps, which the resilient executor uses for accounting).

    ``seconds`` is converted to a monotonic deadline at construction
    time, so build the budget right before using it.
    """

    __slots__ = (
        "step_limit",
        "deadline",
        "max_results",
        "max_depth",
        "max_formula_size",
        "steps",
    )

    def __init__(
        self,
        *,
        steps: Optional[int] = None,
        seconds: Optional[float] = None,
        max_results: Optional[int] = None,
        max_depth: Optional[int] = None,
        max_formula_size: Optional[int] = None,
    ) -> None:
        if steps is not None and steps < 0:
            raise ValueError("steps must be >= 0")
        if seconds is not None and seconds < 0:
            raise ValueError("seconds must be >= 0")
        self.step_limit = steps
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.max_results = max_results
        self.max_depth = max_depth
        self.max_formula_size = max_formula_size
        self.steps = 0

    # -- the hot-path check -------------------------------------------------

    def checkpoint(self, cost: int = 1) -> None:
        """Charge ``cost`` units of work; raise when a limit trips.

        ``cost`` may be large — engines charge the *predicted* size of a
        materialisation up front, so a join that would build n^k rows is
        refused before the first row exists.
        """
        self.steps += cost
        if self.step_limit is not None and self.steps > self.step_limit:
            raise ResourceExhausted(
                f"step budget {self.step_limit} exhausted",
                resource="steps",
                steps=self.steps,
                limit=self.step_limit,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceExhausted(
                "deadline exceeded",
                resource="deadline",
                steps=self.steps,
                limit=self.deadline,
            )

    # -- coarse, call-site checks ------------------------------------------

    def check_results(self, count: int) -> None:
        """Refuse a result set larger than the cardinality cap."""
        if self.max_results is not None and count > self.max_results:
            raise ResourceExhausted(
                f"result cardinality {count} exceeds cap {self.max_results}",
                resource="results",
                steps=count,
                limit=self.max_results,
            )

    def check_depth(self, depth: int) -> None:
        """Refuse recursion (e.g. nested ``atp`` subcomputations) deeper
        than the limit."""
        if self.max_depth is not None and depth > self.max_depth:
            raise ResourceExhausted(
                f"recursion depth {depth} exceeds limit {self.max_depth}",
                resource="depth",
                steps=depth,
                limit=self.max_depth,
            )

    def check_formula_size(self, size: int) -> None:
        """Refuse a formula/expression with more than the allowed number
        of subterms — the cheapest defence against adversarial inputs,
        applied before any evaluation starts."""
        if self.max_formula_size is not None and size > self.max_formula_size:
            raise ResourceExhausted(
                f"formula size {size} exceeds limit {self.max_formula_size}",
                resource="formula-size",
                steps=size,
                limit=self.max_formula_size,
            )

    # -- derived budgets ----------------------------------------------------

    def remaining_steps(self) -> Optional[int]:
        if self.step_limit is None:
            return None
        return max(self.step_limit - self.steps, 0)

    def slice(self, fraction: float) -> "Budget":
        """A child budget holding ``fraction`` of the remaining steps and
        wall-clock, with the other limits inherited.  The resilient
        executor gives the fast engine such a slice, keeping the rest in
        reserve for the reference fallback."""
        child = Budget(
            max_results=self.max_results,
            max_depth=self.max_depth,
            max_formula_size=self.max_formula_size,
        )
        remaining = self.remaining_steps()
        if remaining is not None:
            child.step_limit = max(int(remaining * fraction), 1)
        if self.deadline is not None:
            now = time.monotonic()
            child.deadline = now + max(self.deadline - now, 0.0) * fraction
        return child

    def __repr__(self) -> str:
        limits = []
        if self.step_limit is not None:
            limits.append(f"steps={self.step_limit}")
        if self.deadline is not None:
            limits.append("deadline=set")
        if self.max_results is not None:
            limits.append(f"max_results={self.max_results}")
        if self.max_depth is not None:
            limits.append(f"max_depth={self.max_depth}")
        if self.max_formula_size is not None:
            limits.append(f"max_formula_size={self.max_formula_size}")
        return f"Budget({', '.join(limits) or 'unlimited'}; spent={self.steps})"


class ExecutionContext:
    """What the checkpoints see: an optional budget and an optional
    fault injector (armed only on the fast slice of a resilient call)."""

    __slots__ = ("budget", "faults")

    def __init__(self, budget: Optional[Budget] = None, faults=None) -> None:
        self.budget = budget
        self.faults = faults

    def checkpoint(self, cost: int = 1) -> None:
        if self.faults is not None:
            self.faults.checkpoint()
        if self.budget is not None:
            self.budget.checkpoint(cost)


#: The ambient context.  ``None`` means "no budget, no faults": the
#: checkpoint degenerates to one ContextVar read.
_ACTIVE: "ContextVar[Optional[ExecutionContext]]" = ContextVar(
    "repro_execution_context", default=None
)


def current_context() -> Optional[ExecutionContext]:
    """The active :class:`ExecutionContext`, if any.  Hot loops fetch it
    once per call and skip checkpoints entirely when it is ``None``."""
    return _ACTIVE.get()


@contextmanager
def activate(context: Optional[ExecutionContext]) -> Iterator[Optional[ExecutionContext]]:
    """Install ``context`` as the ambient execution context.

    Contexts nest; the innermost wins (the resilient executor relies on
    this to give the fast slice its own budget under a caller's outer
    one).  ``activate(None)`` explicitly *clears* the ambient context —
    the fallback path uses that to shield the reference engine from a
    fault injector armed further out.
    """
    token = _ACTIVE.set(context)
    try:
        yield context
    finally:
        _ACTIVE.reset(token)


def checkpoint(cost: int = 1) -> None:
    """Module-level convenience for cold call sites: charge the ambient
    context if one is active."""
    context = _ACTIVE.get()
    if context is not None:
        context.checkpoint(cost)
