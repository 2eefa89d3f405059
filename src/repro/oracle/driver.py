"""The fuzzing loop: generate → cross-check → shrink → persist.

``run_oracle`` spreads a case budget round-robin over the engine pairs,
collects per-pair statistics (verdicts, wall-clock, automaton step
counts), shrinks any disagreement with :func:`repro.oracle.shrink.shrink_case`
and persists the minimised reproducer to the corpus directory.
``replay_corpus`` is the regression half: re-check every stored entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import decode_case, encode_case, iter_corpus, save_entry
from .pairs import (
    AutomatonVsSpec,
    AutoVsFastFO,
    Case,
    CaterpillarVsFastCaterpillar,
    CaterpillarVsNTWA,
    CorpusVsSequential,
    EnginePair,
    FOVsEnumeration,
    FOVsFastFO,
    NTWAVsFastCaterpillar,
    Outcome,
    RunnerVsMemo,
    StoreVsSequential,
    XPathVsCaterpillar,
    XPathVsFastXPath,
    XPathVsFO,
    crash_outcome,
)
from .shrink import shrink_case


def default_pairs() -> Tuple[EnginePair, ...]:
    """All thirteen engine pairs, in a stable order."""
    return (
        XPathVsFO(),
        XPathVsCaterpillar(),
        CaterpillarVsNTWA(),
        RunnerVsMemo(),
        AutomatonVsSpec(),
        FOVsEnumeration(),
        FOVsFastFO(),
        AutoVsFastFO(),
        XPathVsFastXPath(),
        CaterpillarVsFastCaterpillar(),
        NTWAVsFastCaterpillar(),
        CorpusVsSequential(),
        StoreVsSequential(),
    )


def pairs_by_name(
    pairs: Optional[Sequence[EnginePair]] = None,
) -> Dict[str, EnginePair]:
    return {p.name: p for p in (pairs if pairs is not None else default_pairs())}


@dataclass
class PairStats:
    """Aggregated results of one engine pair over a run."""

    name: str
    cases: int = 0
    disagreements: int = 0
    errors: int = 0
    left_seconds: float = 0.0
    right_seconds: float = 0.0
    left_steps: int = 0
    right_steps: int = 0

    def record(self, outcome: Outcome) -> None:
        self.cases += 1
        if not outcome.agree:
            self.disagreements += 1
        if outcome.error:
            self.errors += 1
        self.left_seconds += outcome.left_seconds
        self.right_seconds += outcome.right_seconds
        self.left_steps += outcome.left_steps or 0
        self.right_steps += outcome.right_steps or 0


@dataclass
class Disagreement:
    """One confirmed divergence, before and after shrinking."""

    pair: str
    original: Dict
    shrunk: Dict
    outcome: Outcome
    shrink_evals: int = 0
    saved_to: Optional[Path] = None


@dataclass
class OracleReport:
    """Everything one oracle run learned."""

    seed: int
    budget: int
    stats: List[PairStats] = field(default_factory=list)
    disagreements: List[Disagreement] = field(default_factory=list)

    def total_cases(self) -> int:
        return sum(s.cases for s in self.stats)

    def total_disagreements(self) -> int:
        return sum(s.disagreements for s in self.stats)

    def summary_lines(self) -> List[str]:
        width = max((len(s.name) for s in self.stats), default=4)
        lines = [
            f"{'pair':<{width}}  {'cases':>5}  {'bad':>3}  "
            f"{'left s':>8}  {'right s':>8}  {'steps L/R':>15}"
        ]
        for s in self.stats:
            steps = f"{s.left_steps}/{s.right_steps}" if (
                s.left_steps or s.right_steps
            ) else "-"
            lines.append(
                f"{s.name:<{width}}  {s.cases:>5}  {s.disagreements:>3}  "
                f"{s.left_seconds:>8.3f}  {s.right_seconds:>8.3f}  {steps:>15}"
            )
        return lines


def run_oracle(
    seed: int,
    budget: int,
    pairs: Optional[Sequence[EnginePair]] = None,
    max_size: int = 10,
    shrink: bool = True,
    corpus_dir: Optional[Path] = None,
    verbose: bool = False,
) -> OracleReport:
    """Fuzz ``budget`` cases round-robin over ``pairs`` from ``seed``.

    Disagreements are shrunk (unless ``shrink=False``) and persisted to
    ``corpus_dir`` when one is given.
    """
    pairs = tuple(pairs if pairs is not None else default_pairs())
    if not pairs:
        raise ValueError("need at least one engine pair")
    rng = random.Random(seed)
    stats = {p.name: PairStats(p.name) for p in pairs}
    report = OracleReport(seed=seed, budget=budget, stats=list(stats.values()))
    for i in range(budget):
        pair = pairs[i % len(pairs)]
        case = pair.generate(rng, max_size)
        try:
            outcome = pair.check(case)
        except Exception as exc:
            # An engine crash is a disagreement too — persist it like a
            # value mismatch rather than aborting the whole run.
            outcome = crash_outcome(exc)
        stats[pair.name].record(outcome)
        if outcome.agree:
            continue
        if verbose:
            print(f"[{pair.name}] disagreement on case {i}: "
                  f"left={outcome.left} right={outcome.right}")
        original = encode_case(pair, case, note="as generated")
        evals = 0
        if shrink:
            case, outcome, evals = shrink_case(pair, case)
        entry = encode_case(
            pair, case,
            note=f"shrunk reproducer (seed={seed}, case={i})" if shrink
            else f"unshrunk (seed={seed}, case={i})",
        )
        record = Disagreement(
            pair=pair.name, original=original, shrunk=entry,
            outcome=outcome, shrink_evals=evals,
        )
        if corpus_dir is not None:
            record.saved_to = save_entry(entry, corpus_dir)
        report.disagreements.append(record)
    return report


@dataclass
class ReplayResult:
    """Verdict of replaying one stored corpus entry."""

    path: Path
    pair: str
    outcome: Optional[Outcome]
    skipped: Optional[str] = None  # reason, e.g. unknown pair name

    @property
    def ok(self) -> bool:
        return self.skipped is None and self.outcome is not None \
            and self.outcome.agree


def replay_corpus(
    directory: Optional[Path] = None,
    pairs: Optional[Sequence[EnginePair]] = None,
) -> List[ReplayResult]:
    """Re-check every stored counterexample; a fixed bug stays fixed.

    Entries whose pair is not in ``pairs`` are reported as skipped
    rather than failed, so a corpus can outlive an engine it indicts.
    """
    registry = pairs_by_name(pairs)
    results: List[ReplayResult] = []
    for path, entry in iter_corpus(directory):
        name = entry.get("pair", "?")
        if name not in registry:
            results.append(
                ReplayResult(path, name, None, skipped=f"unknown pair {name!r}")
            )
            continue
        pair, case = decode_case(entry, registry)
        try:
            outcome = pair.check(case)
        except Exception as exc:
            outcome = crash_outcome(exc)
        results.append(ReplayResult(path, name, outcome))
    return results
