"""Cross-engine differential oracle.

The paper is a web of equivalences — XPath is simulated by FO(∃*)
(§2.3), caterpillar expressions are nondeterministic tree-walkers ([7]),
memoised configuration-graph evaluation agrees with the direct runner
(Theorem 7.1), automata come with independent FO specifications — and
this repo ships an executable engine for every side of every arrow.
Silent divergence between those engines is the highest-risk bug class,
so this subsystem keeps them honest:

* :mod:`repro.oracle.generators` — seeded generators for random
  attributed trees, XPath expressions, caterpillar expressions, FO(∃*)
  queries and tw^{r,l} automaton specimens;
* :mod:`repro.oracle.pairs` — one :class:`~repro.oracle.pairs.EnginePair`
  per equivalence, each evaluating a generated (tree, query) case
  through both engines and comparing verdicts, step counts and timings;
* :mod:`repro.oracle.shrink` — a delta-debugging shrinker that reduces
  any disagreeing case to a small reproducer;
* :mod:`repro.oracle.corpus` — JSON persistence of shrunk reproducers
  under ``tests/corpus/``, replayed by the test suite forever after;
* :mod:`repro.oracle.driver` / :mod:`repro.oracle.cli` — the fuzzing
  loop and its command line, ``python -m repro.oracle --seed 0
  --budget 200``.

>>> from repro.oracle import run_oracle
>>> report = run_oracle(seed=0, budget=12, max_size=8)
>>> report.total_disagreements()
0
"""

from .corpus import decode_case, encode_case, iter_corpus, save_entry
from .driver import (
    OracleReport,
    PairStats,
    default_pairs,
    pairs_by_name,
    replay_corpus,
    run_oracle,
)
from .pairs import (
    AutomatonVsSpec,
    CaterpillarVsFastCaterpillar,
    CaterpillarVsNTWA,
    Case,
    CorpusVsSequential,
    EnginePair,
    FOVsEnumeration,
    FOVsFastFO,
    Outcome,
    RunnerVsMemo,
    XPathVsCaterpillar,
    NTWAVsFastCaterpillar,
    XPathVsFastXPath,
    XPathVsFO,
)
from .shrink import shrink_case

__all__ = [
    "AutomatonVsSpec",
    "CaterpillarVsFastCaterpillar",
    "CaterpillarVsNTWA",
    "Case",
    "CorpusVsSequential",
    "EnginePair",
    "FOVsEnumeration",
    "FOVsFastFO",
    "OracleReport",
    "Outcome",
    "PairStats",
    "RunnerVsMemo",
    "XPathVsCaterpillar",
    "NTWAVsFastCaterpillar",
    "XPathVsFastXPath",
    "XPathVsFO",
    "decode_case",
    "default_pairs",
    "encode_case",
    "iter_corpus",
    "pairs_by_name",
    "replay_corpus",
    "run_oracle",
    "save_entry",
    "shrink_case",
]
