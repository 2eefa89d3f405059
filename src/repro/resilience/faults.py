"""Deterministic fault injection for the resilient executor.

The budget checkpoints threaded through every engine hot loop double as
injection points: a :class:`FaultInjector` armed on the *fast* slice of
a resilient call counts checkpoints and, at the Nth one of a seeded
schedule, raises either an :class:`InjectedFault` (a simulated engine
bug) or an :class:`InjectedStall` (a simulated hang, surfacing exactly
as budget exhaustion would).  Because the schedule is a pure function
of the campaign seed, every failure is replayable bit-for-bit.

:func:`run_campaign` is the harness: for each seeded case it generates
a document and a query, computes the reference answer, re-runs the
query with ``engine="resilient"`` under an injected fault, and demands
(1) no uncaught exception, (2) the answer came via fallback, and
(3) the answer is byte-identical to the reference's.  A disagreement is
reported as a structured :class:`~repro.resilience.errors.EngineDisagreement`
record, mirroring the differential oracle's verdicts.

For faults *outside* the checkpoint fabric there is
:func:`broken_internals`: a monkeypatch-style context manager that wraps
a module attribute so its Nth call raises — used by the test suite to
prove fallback also survives engines that die before their first
checkpoint.

``python -m repro.resilience`` runs a campaign from the command line;
``make fault`` pins the seeded 200-case CI campaign.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .errors import EngineDisagreement, InjectedFault, InjectedStall

__all__ = [
    "Fault",
    "FaultInjector",
    "broken_internals",
    "CampaignCase",
    "CampaignReport",
    "run_campaign",
]


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: blow up at the ``at_checkpoint``-th
    checkpoint, as a bug (``"error"``), a hang (``"stall"``), or a
    whole-process death (``"crash"``).

    ``"crash"`` calls ``os._exit`` — it exists to kill a *worker
    process* mid-chunk so the parent-side retry/degrade machinery can
    be exercised deterministically.  Never arm it on an in-process
    evaluation: the process it kills is yours."""

    at_checkpoint: int
    kind: str = "error"

    def __post_init__(self) -> None:
        if self.kind not in ("error", "stall", "crash"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_checkpoint < 1:
            raise ValueError("at_checkpoint is 1-based and must be >= 1")


class FaultInjector:
    """Counts checkpoints; fires its fault at the scheduled one.

    With ``fault=None`` it only counts — the campaign uses a counting
    pass to learn how many checkpoints a query executes, then schedules
    the real fault uniformly inside that range.
    """

    __slots__ = ("fault", "count", "fired")

    def __init__(self, fault: Optional[Fault] = None) -> None:
        self.fault = fault
        self.count = 0
        self.fired = 0

    def checkpoint(self) -> None:
        self.count += 1
        fault = self.fault
        if fault is not None and self.count == fault.at_checkpoint:
            self.fired += 1
            if fault.kind == "crash":
                import os

                os._exit(23)  # a worker process dying mid-chunk
            if fault.kind == "error":
                raise InjectedFault(
                    f"injected engine fault at checkpoint {fault.at_checkpoint}"
                )
            raise InjectedStall(
                f"injected stall at checkpoint {fault.at_checkpoint}",
                resource="deadline",
                steps=self.count,
                limit=fault.at_checkpoint,
            )


@contextmanager
def broken_internals(
    obj: object, name: str, *, calls_before_failure: int = 0
) -> Iterator[None]:
    """Monkeypatch-wrap ``obj.name`` so it raises an
    :class:`InjectedFault` after ``calls_before_failure`` successful
    calls — the blunt instrument for faults the checkpoint fabric cannot
    reach (an engine dying on entry, a compiler bug).  Restores the
    original on exit, exception or not."""
    original = getattr(obj, name)
    state = {"calls": 0}

    def wrapper(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] > calls_before_failure:
            raise InjectedFault(
                f"injected fault in {name} (call {state['calls']})"
            )
        return original(*args, **kwargs)

    setattr(obj, name, wrapper)
    try:
        yield
    finally:
        setattr(obj, name, original)


# ---------------------------------------------------------------------------
# The campaign harness
# ---------------------------------------------------------------------------


@dataclass
class CampaignCase:
    """One injected-fault trial and its verdict."""

    index: int
    operation: str
    query: str
    tree: str
    fault: Optional[Fault]
    checkpoints: int  #: checkpoints the un-faulted fast run executed
    fell_back: bool
    agreed: bool
    error: Optional[str] = None  #: uncaught exception, if any


@dataclass
class CampaignReport:
    """Aggregate of one fault campaign."""

    seed: int
    cases: List[CampaignCase] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return sum(1 for c in self.cases if c.fault is not None)

    @property
    def fallbacks(self) -> int:
        return sum(1 for c in self.cases if c.fell_back)

    @property
    def disagreements(self) -> List[CampaignCase]:
        return [c for c in self.cases if not c.agreed]

    @property
    def uncaught(self) -> List[CampaignCase]:
        return [c for c in self.cases if c.error is not None]

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.uncaught

    def summary_lines(self) -> List[str]:
        lines = [
            f"fault campaign: seed={self.seed} cases={len(self.cases)} "
            f"injected={self.injected} fallbacks={self.fallbacks} "
            f"disagreements={len(self.disagreements)} "
            f"uncaught={len(self.uncaught)}"
        ]
        for case in self.cases:
            if case.agreed and case.error is None:
                continue
            lines.append(
                f"  case {case.index} [{case.operation}] {case.query!r} on "
                f"{case.tree!r} fault={case.fault}: "
                + (case.error or "answers disagree")
            )
        return lines


#: The facade operations a campaign exercises, round-robin.
_OPERATIONS = ("xpath", "holds", "caterpillar", "caterpillar_relation", "run_automaton")


def _generate(operation: str, rng: random.Random, max_size: int):
    """A (tree, query-text/payload, reference-thunk-args) for one case.
    Reuses the oracle's seeded generators so campaign inputs match the
    differential corpus' distribution."""
    from ..oracle import generators as gen

    tree = gen.random_attributed_tree(rng, max_size)
    if operation == "xpath":
        # random_xpath guarantees a repr → parse_xpath round trip.
        query = repr(gen.random_xpath(rng))
        return tree, query
    if operation == "holds":
        from ..logic.parser import format_formula

        query = format_formula(gen.random_fo_sentence(rng))
        return tree, query
    if operation in ("caterpillar", "caterpillar_relation"):
        from ..caterpillar.parser import format_caterpillar

        query = format_caterpillar(gen.random_caterpillar(rng))
        return tree, query
    specimen = gen.random_automaton_specimen(rng)
    return tree, specimen


#: The query kind (a row of :data:`repro.engine.plans.DIALECTS`) each
#: text operation runs as, through :meth:`TreeDatabase.query`.
_KINDS = {
    "xpath": "xpath",
    "holds": "ask",
    "caterpillar": "caterpillar",
    "caterpillar_relation": "caterpillar-relation",
}


def _run(db, operation: str, query, engine: str):
    """Dispatch one facade call; returns a canonically comparable value."""
    kind = _KINDS.get(operation)
    if kind is not None:
        return db.query(kind, query, engine=engine)
    # run_automaton: the specimen knows whether it needs delim(t)
    automaton, delimited = query.build()
    return db.run_automaton(automaton, delimited=delimited, engine=engine)


def _describe_query(operation: str, query) -> str:
    if operation == "run_automaton":
        return f"automaton:{query.template}"
    return str(query)


def run_campaign(
    seed: int,
    cases: int = 200,
    max_size: int = 8,
    operations: Sequence[str] = _OPERATIONS,
    on_case: Optional[Callable[[CampaignCase], None]] = None,
) -> CampaignReport:
    """Run a seeded fault campaign; see the module docstring.

    Each case: generate → reference answer → count the fast engine's
    checkpoints → inject a fault at a uniformly chosen checkpoint →
    assert fallback answered with the reference's exact answer.
    """
    from ..queries import TreeDatabase

    rng = random.Random(seed)
    report = CampaignReport(seed=seed)
    for i in range(cases):
        operation = operations[i % len(operations)]
        tree, query = _generate(operation, rng, max_size)
        db = TreeDatabase(tree)
        case = CampaignCase(
            index=i,
            operation=operation,
            query=_describe_query(operation, query),
            tree=db.to_term(),
            fault=None,
            checkpoints=0,
            fell_back=False,
            agreed=False,
        )
        try:
            expected = _run(db, operation, query, engine="reference")
            # Counting pass: how many checkpoints does the fast slice run?
            counter = FaultInjector()
            db._fault_injector = counter
            try:
                _run(db, operation, query, engine="resilient")
            finally:
                db._fault_injector = None
            case.checkpoints = counter.count
            if counter.count:
                kind = "error" if rng.random() < 0.5 else "stall"
                case.fault = Fault(rng.randint(1, counter.count), kind)
                injector = FaultInjector(case.fault)
                db._fault_injector = injector
                try:
                    answer = _run(db, operation, query, engine="resilient")
                finally:
                    db._fault_injector = None
                info = db.resilience_info()
                case.fell_back = info["fallbacks"] > 0 and injector.fired > 0
            else:
                # Query too small to checkpoint: still a (fault-free)
                # resilient run, counted but not injected.
                answer = _run(db, operation, query, engine="resilient")
            case.agreed = answer == expected
            if not case.agreed:
                case.error = str(
                    EngineDisagreement(
                        f"fallback answer differs from reference on case {i}",
                        left=answer,
                        right=expected,
                    )
                )
                case.error = f"EngineDisagreement: {case.error}"
        except Exception as exc:  # an uncaught escape IS the campaign failure
            case.error = f"{type(exc).__name__}: {exc}"
        report.cases.append(case)
        if on_case is not None:
            on_case(case)
    return report
