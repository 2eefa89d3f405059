"""Set-at-a-time query execution over corpora of trees.

The paper's data-complexity results are statements about one fixed
query and arbitrarily many (or arbitrarily large) instances.  This
package is that reading made into an engine: a :class:`TreeCorpus`
holds many indexed trees, a batch of :class:`CorpusQuery` texts
compiles once through the process-wide shared plan cache, and
:func:`run_batch` sweeps the (tree × query) grid chunk by chunk —
serially or fanned out over a process pool — with per-chunk
reference-engine degradation on faults (the PR-4 resilience contract
lifted to batches).

Corpora can also live on disk: a :class:`CorpusStore` is a directory
of append-only segment files ingested by streaming (bounded memory),
queried through the same batch executor with mmap-lazy shard loading
in the workers, and editable in place with incremental index repair
(:mod:`repro.corpus.store`).  Sealed segments carry generation-tied
``.rpridx`` index sidecars (:class:`Sidecar`), so a window whose
queries all have IR plans assembles its stacked shards straight from
serialized index bytes — no tree unpickling, no per-tree index
rebuild — whatever the engine name, except an explicit ``reference``.

>>> from repro.corpus import TreeCorpus, xpath_query
>>> corpus = TreeCorpus.from_terms(["σ(δ, σ)", "δ(σ(δ))"])
>>> result = corpus.run([xpath_query("//δ")])
>>> [len(nodes) for nodes in result.for_query(0)]
[1, 1]
"""

from .corpus import TreeCorpus
from .executor import BatchResult, ChunkReport, run_batch
from .query import (
    KINDS,
    CorpusQuery,
    ask_query,
    caterpillar_query,
    caterpillar_relation_query,
    select_query,
    xpath_query,
)
from .segment import (
    BlobRuns,
    Segment,
    SegmentWriter,
    Sidecar,
    recover_segment,
    sidecar_path,
    write_sidecar,
)
from .store import (
    CorpusStore,
    StoreCorruptError,
    StoreError,
    StoreLockedError,
    StoreMissingError,
    StoreVersionError,
)

__all__ = [
    "BatchResult",
    "BlobRuns",
    "ChunkReport",
    "CorpusQuery",
    "CorpusStore",
    "KINDS",
    "Segment",
    "SegmentWriter",
    "Sidecar",
    "StoreCorruptError",
    "StoreError",
    "StoreLockedError",
    "StoreMissingError",
    "StoreVersionError",
    "TreeCorpus",
    "ask_query",
    "caterpillar_query",
    "caterpillar_relation_query",
    "recover_segment",
    "run_batch",
    "select_query",
    "sidecar_path",
    "write_sidecar",
    "xpath_query",
]
