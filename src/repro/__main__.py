"""Command-line interface: ``python -m repro <command> …``.

Commands
--------

``info FILE``
    Parse a document (XML subset or term syntax) and print its vitals.

``query FILE (--xpath EXPR | --ask SENTENCE | --select QUERY)``
    Evaluate an XPath expression, an FO sentence, or a binary FO(∃*)
    query (text syntax) against the document.

``run FILE AUTOMATON``
    Run a stock tree-walking automaton (see ``run --list``).

``transform FILE TRANSDUCER``
    Apply a stock transducer and print the output document.

``protocol PROGRAM F G``
    Play the Lemma 4.5 protocol for a stock string program on the split
    string f#g (f, g comma-separated values) and print the dialogue.

``corpus FILE… --xpath EXPR [--ask S] [--select Q] [--caterpillar E]``
    Evaluate a batch of queries over many documents set-at-a-time
    through the corpus engine; repeat any query flag to grow the
    batch, add ``--workers N`` to fan out and ``--stats`` for the
    per-chunk execution report.

``corpus --store DIR [--ingest FILE]… [FILE…] [query flags]``
    The same batch surface over a disk-backed corpus store.
    ``--ingest`` streams a file of concatenated documents into the
    store (created on first ingest; bounded memory however large the
    file); positional FILEs append one document each; query flags then
    run over the stored corpus without loading it wholesale.  A
    missing or version-mismatched store is a clean error (exit 2),
    never a raw traceback.

``serve (FILE… | --store DIR | --random N) [--port P] [--workers W]``
    Serve the corpus over TCP (length-prefixed JSON protocol) with
    admission control, per-query deadlines, and graceful degradation
    — see ``repro.service``.  ``--store`` opens a corpus store
    read-only, so a writer elsewhere is undisturbed.

``repl (FILE… | --store DIR | --random N | --connect HOST:PORT)``
    Interactive line REPL over the same dispatcher — local (loads the
    corpus in-process) or remote (speaks the serve protocol).

``oracle [ARGS…]``
    Differential fuzzing across the query engines; forwards to
    ``python -m repro.oracle`` (try ``oracle --help``).

``resilience [ARGS…]``
    Seeded fault-injection campaigns over the resilient executor;
    forwards to ``python -m repro.resilience`` (try
    ``resilience --help``).

Documents: files ending in ``.xml`` are parsed as the XML subset;
anything else as term syntax ``label[attr=value](children)``.  Pass
``-`` to read stdin.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from .queries import TreeDatabase
from .trees import Tree, format_node, from_xml, parse_term, to_xml


def _load(path: str) -> TreeDatabase:
    if path == "-":
        text = sys.stdin.read()
        parse = from_xml if text.lstrip().startswith("<") else parse_term
        return TreeDatabase(parse(text))
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".xml") or text.lstrip().startswith("<"):
        return TreeDatabase(from_xml(text))
    return TreeDatabase(parse_term(text))


# -- registries ---------------------------------------------------------------------


def _automaton_registry() -> Dict[str, Callable]:
    """name → builder(attr) returning (automaton, needs_delimiting);
    attribute-parameterised automata use the document's first attribute."""
    from .automata import examples as ex

    return {
        "example-3.2": lambda attr: (ex.example_32(), True),
        "even-leaves": lambda attr: (ex.even_leaves_automaton(), False),
        "all-values-same": lambda attr: (ex.all_values_same_twr(attr), False),
        "leaves-uniform": lambda attr: (ex.all_leaves_same_twrl(attr), False),
        "spine-constant": lambda attr: (ex.spine_constant_automaton(attr), False),
        "delta-mod3": lambda attr: (ex.delta_leaves_mod3_twr(), False),
    }


def _transducer_registry() -> Dict[str, Callable]:
    from . import transducer as tr

    return {
        "identity": tr.identity_transducer,
        "prune-δ": lambda: tr.prune_transducer("δ"),
        "flatten-leaves": tr.flatten_leaves_transducer,
        "catalog-report": tr.catalog_report_transducer,
    }


def _program_registry() -> Dict[str, Callable]:
    from .protocol import programs as pp

    return {
        "walking-all-same": pp.walking_all_same,
        "atp-all-same": pp.atp_all_same,
        "nested-constant": pp.nested_constant_suffixes,
        "first-equals-last": pp.root_value_reappears,
        "walking-reporters": pp.walking_reporters,
    }


# -- commands -----------------------------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    db = _load(args.file)
    tree = db.tree
    leaves = sum(1 for u in tree.nodes if tree.is_leaf(u))
    print(f"nodes:      {tree.size}")
    print(f"leaves:     {leaves}")
    print(f"alphabet:   {', '.join(tree.alphabet)}")
    print(f"attributes: {', '.join(tree.attributes) or '(none)'}")
    print(f"values:     {len(tree.active_domain())} distinct")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    db = _load(args.file)
    if args.xpath:
        for node in db.xpath(args.xpath):
            print(format_node(node))
        return 0
    if args.ask:
        verdict = db.ask(args.ask)
        print("true" if verdict else "false")
        return 0 if verdict else 1
    for node in db.select_where(args.select):
        print(format_node(node))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    registry = _automaton_registry()
    if args.list:
        for name in sorted(registry):
            print(name)
        return 0
    db = _load(args.file)
    if args.automaton_file:
        from .automata.textformat import load_automaton

        automaton, delimited = load_automaton(args.automaton_file), args.delim
    else:
        if args.automaton not in registry:
            print(f"unknown automaton {args.automaton!r}; try --list",
                  file=sys.stderr)
            return 2
        attr = db.tree.attributes[0] if db.tree.attributes else "a"
        automaton, delimited = registry[args.automaton](attr)
    verdict = db.run_automaton(automaton, delimited=delimited)
    print("accept" if verdict else "reject")
    return 0 if verdict else 1


def _cmd_transform(args: argparse.Namespace) -> int:
    registry = _transducer_registry()
    if args.list:
        for name in sorted(registry):
            print(name)
        return 0
    if args.transducer not in registry:
        print(f"unknown transducer {args.transducer!r}; try --list",
              file=sys.stderr)
        return 2
    from .transducer import run_transducer

    db = _load(args.file)
    output = run_transducer(registry[args.transducer](), db.tree)
    print(to_xml(output), end="")
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    registry = _program_registry()
    if args.list:
        for name in sorted(registry):
            print(name)
        return 0
    if args.program_file:
        from .automata.textformat import load_automaton

        program = load_automaton(args.program_file)
    elif args.program in registry:
        program = registry[args.program]()
    else:
        print(f"unknown program {args.program!r}; try --list", file=sys.stderr)
        return 2
    from .protocol import run_protocol

    f = args.f.split(",")
    g = args.g.split(",")
    result = run_protocol(program, f, g)
    for sender, message in result.dialogue:
        print(f"{sender:>2} -> {type(message).__name__}")
    print("verdict:", "accept" if result.accepted else "reject")
    return 0 if result.accepted else 1


def _iter_documents(path: str):
    """Stream a file of concatenated documents (XML subset or term
    syntax, sniffed) one tree at a time — the ingest feed."""
    import io

    from .trees import iter_term_stream, iter_xml_stream

    if path == "-":
        text = sys.stdin.read()
        xml = text.lstrip().startswith("<")
        stream = io.StringIO(text)
        yield from (iter_xml_stream(stream) if xml else iter_term_stream(stream))
        return
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.read(512)
        handle.seek(0)
        if path.endswith(".xml") or head.lstrip().startswith("<"):
            yield from iter_xml_stream(handle)
        else:
            yield from iter_term_stream(handle)


def _print_batch(result, labels, queries) -> None:
    for t, label in enumerate(labels):
        print(f"{label}:")
        for q, query in enumerate(queries):
            answer = result.cell(t, q)
            if query.kind == "ask":
                shown = "true" if answer else "false"
            else:
                shown = ", ".join(format_node(n) for n in answer) or "(none)"
            print(f"  {query.kind} {query.text}: {shown}")


def _print_chunk_stats(result, queries) -> None:
    print(
        f"{result.tree_count} trees x {len(queries)} queries in "
        f"{len(result.chunks)} chunks (workers={result.workers})"
    )
    for chunk in result.chunks:
        note = f" [{chunk.error}]" if chunk.fell_back else ""
        print(
            f"  chunk {chunk.index}: trees {chunk.start}..{chunk.stop}"
            f" via {chunk.engine} in {chunk.seconds * 1000:.1f}ms{note}"
        )


def _cmd_corpus_store(args: argparse.Namespace, queries) -> int:
    from .corpus import CorpusStore, StoreError, StoreMissingError

    ingesting = bool(args.ingest or args.files)
    try:
        try:
            store = CorpusStore.open(args.store)
        except StoreMissingError:
            if not ingesting:
                raise
            store = CorpusStore.create(args.store)
    except StoreError as exc:
        print(f"corpus: {exc}", file=sys.stderr)
        return 2
    with store:
        try:
            for path in args.ingest:
                count = store.ingest(_iter_documents(path))
                print(f"ingested {count} documents from {path}")
            for path in args.files:
                store.append(_load(path).tree)
            if args.compact:
                rewritten = store.compact()
                if rewritten:
                    print(
                        f"compacted into {rewritten} segments "
                        f"(generation {store.generation})"
                    )
                else:
                    print("store already compact")
            if not queries:
                print(
                    f"store {args.store}: {store.tree_count} trees, "
                    f"{store.node_count} nodes, "
                    f"generation {store.generation}"
                )
                return 0
            result = store.run(
                queries,
                workers=args.workers,
                chunk_size=args.chunk_size,
                engine=args.engine,
            )
        except StoreError as exc:
            print(f"corpus: {exc}", file=sys.stderr)
            return 2
        labels = [f"tree {t}" for t in range(result.tree_count)]
        _print_batch(result, labels, queries)
        if args.stats:
            _print_chunk_stats(result, queries)
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import (
        TreeCorpus,
        ask_query,
        caterpillar_query,
        select_query,
        xpath_query,
    )

    queries = (
        [xpath_query(text) for text in args.xpath]
        + [ask_query(text) for text in args.ask]
        + [select_query(text) for text in args.select]
        + [caterpillar_query(text) for text in args.caterpillar]
    )
    if args.ingest and args.store is None:
        print("corpus: --ingest needs --store", file=sys.stderr)
        return 2
    if args.store is not None:
        return _cmd_corpus_store(args, queries)
    if not queries:
        print(
            "corpus: give at least one --xpath/--ask/--select/--caterpillar",
            file=sys.stderr,
        )
        return 2
    if not args.files:
        print("corpus: give at least one FILE (or --store DIR)",
              file=sys.stderr)
        return 2
    trees = [_load(path).tree for path in args.files]
    with TreeCorpus(trees) as corpus:
        result = corpus.run(
            queries,
            workers=args.workers,
            chunk_size=args.chunk_size,
            engine=args.engine,
        )
    _print_batch(result, args.files, queries)
    if args.stats:
        _print_chunk_stats(result, queries)
    return 0


def _open_service_corpus(args: argparse.Namespace):
    """``(corpus, closer)`` for serve/repl from files, a store, or a
    synthetic corpus; a store opens read-only so writers elsewhere
    keep their lock."""
    from .corpus import CorpusStore, StoreError, TreeCorpus

    if getattr(args, "store", None):
        store = CorpusStore.open(args.store, readonly=True)
        return store, store.close
    if getattr(args, "random", None):
        corpus = TreeCorpus.random(args.random, max_size=48, seed=7)
        return corpus, corpus.close
    if not args.files:
        raise StoreError("give FILE documents, --store DIR, or --random N")
    corpus = TreeCorpus(_load(path).tree for path in args.files)
    return corpus, corpus.close


def _cmd_serve(args: argparse.Namespace) -> int:
    from .corpus import StoreError
    from .service import AdmissionController, Dispatcher, QueryServer

    try:
        corpus, closer = _open_service_corpus(args)
    except StoreError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        dispatcher = Dispatcher(
            corpus,
            admission=AdmissionController(
                max_inflight=args.max_inflight,
                quota_steps=args.quota_steps or None,
                window_seconds=args.quota_window,
            ),
            workers=args.workers,
            default_timeout_ms=args.timeout_ms or None,
            allow_faults=args.allow_faults,
            result_cache=args.result_cache,
        )
        server = QueryServer(dispatcher, host=args.host, port=args.port)
        server.start_in_thread()
        host, port = server.address
        print(f"serving {dispatcher._tree_count()} trees on {host}:{port}")
        try:
            while server._thread.is_alive():
                server._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            server.stop()
    finally:
        closer()
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from .service import run_repl

    if args.connect:
        from .service import ServiceClient

        host, _, port = args.connect.rpartition(":")
        try:
            client = ServiceClient(host or "127.0.0.1", int(port))
        except (OSError, ValueError) as exc:
            print(f"repl: cannot connect to {args.connect}: {exc}",
                  file=sys.stderr)
            return 2
        with client:
            return run_repl(client.request_raw)
    from .corpus import StoreError
    from .service import Dispatcher

    try:
        corpus, closer = _open_service_corpus(args)
    except StoreError as exc:
        print(f"repl: {exc}", file=sys.stderr)
        return 2
    try:
        dispatcher = Dispatcher(corpus, workers=args.workers)
        session = dispatcher.open_session()
        return run_repl(lambda request: dispatcher.handle(request, session))
    finally:
        closer()


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle.cli import main as oracle_main

    return oracle_main(args.oracle_args)


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .resilience.cli import main as resilience_main

    return resilience_main(args.resilience_args)


def build_parser() -> argparse.ArgumentParser:
    from .corpus.executor import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tree-walking automata toolbox (Neven, PODS 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="document vitals")
    p_info.add_argument("file")
    p_info.set_defaults(func=_cmd_info)

    p_query = sub.add_parser("query", help="XPath / FO queries")
    p_query.add_argument("file")
    group = p_query.add_mutually_exclusive_group(required=True)
    group.add_argument("--xpath", help="XPath expression (§2.3 fragment)")
    group.add_argument("--ask", help="FO sentence, e.g. 'exists x O_item(x)'")
    group.add_argument("--select", help="binary FO(∃*) query over x, y")
    p_query.set_defaults(func=_cmd_query)

    p_run = sub.add_parser("run", help="run a tree-walking automaton")
    p_run.add_argument("file", nargs="?")
    p_run.add_argument("automaton", nargs="?")
    p_run.add_argument("--list", action="store_true")
    p_run.add_argument("--automaton-file",
                       help="load the automaton from a .tw file instead")
    p_run.add_argument("--delim", action="store_true",
                       help="run the file automaton on delim(t)")
    p_run.set_defaults(func=_cmd_run)

    p_tr = sub.add_parser("transform", help="apply a stock transducer")
    p_tr.add_argument("file", nargs="?")
    p_tr.add_argument("transducer", nargs="?")
    p_tr.add_argument("--list", action="store_true")
    p_tr.set_defaults(func=_cmd_transform)

    p_proto = sub.add_parser("protocol", help="play the Lemma 4.5 protocol")
    p_proto.add_argument("program", nargs="?")
    p_proto.add_argument("f", nargs="?", help="comma-separated left values")
    p_proto.add_argument("g", nargs="?", help="comma-separated right values")
    p_proto.add_argument("--list", action="store_true")
    p_proto.add_argument("--program-file",
                         help="load the program from a .tw file instead")
    p_proto.set_defaults(func=_cmd_protocol)

    p_corpus = sub.add_parser(
        "corpus", help="batch queries over many documents set-at-a-time"
    )
    p_corpus.add_argument("files", nargs="*", metavar="FILE")
    p_corpus.add_argument("--store", metavar="DIR", default=None,
                          help="disk-backed corpus store directory")
    p_corpus.add_argument("--compact", action="store_true",
                          help="repack under-full store segments (and "
                               "their index sidecars) under a "
                               "generation bump")
    p_corpus.add_argument("--ingest", action="append", default=[],
                          metavar="FILE",
                          help="stream a file of concatenated documents "
                               "into --store (repeatable)")
    p_corpus.add_argument("--xpath", action="append", default=[],
                          metavar="EXPR", help="XPath expression (repeatable)")
    p_corpus.add_argument("--ask", action="append", default=[],
                          metavar="SENTENCE", help="FO sentence (repeatable)")
    p_corpus.add_argument("--select", action="append", default=[],
                          metavar="QUERY",
                          help="binary FO(∃*) query over x, y (repeatable)")
    p_corpus.add_argument("--caterpillar", action="append", default=[],
                          metavar="EXPR",
                          help="caterpillar expression (repeatable)")
    p_corpus.add_argument("--workers", type=int, default=0,
                          help="worker processes (0 = serial)")
    p_corpus.add_argument("--chunk-size", type=int, default=None,
                          help="trees per chunk")
    p_corpus.add_argument("--engine",
                          choices=ENGINES,
                          default="fast")
    p_corpus.add_argument("--stats", action="store_true",
                          help="print the per-chunk execution report")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_serve = sub.add_parser(
        "serve", help="serve the corpus over TCP (JSON protocol)"
    )
    p_serve.add_argument("files", nargs="*", metavar="FILE")
    p_serve.add_argument("--store", metavar="DIR", default=None,
                         help="serve a corpus store (opened read-only)")
    p_serve.add_argument("--random", type=int, default=None, metavar="N",
                         help="serve N synthetic trees instead of files")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7267,
                         help="TCP port (0 = pick a free one)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="worker processes per batch (0 = in-thread)")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         help="concurrent queries before OVERLOADED")
    p_serve.add_argument("--quota-steps", type=int, default=2_000_000,
                         help="per-session budget steps per window "
                              "(0 = unlimited)")
    p_serve.add_argument("--quota-window", type=float, default=1.0,
                         help="quota refill window in seconds")
    p_serve.add_argument("--timeout-ms", type=int, default=10_000,
                         help="default per-query deadline (0 = none)")
    p_serve.add_argument("--result-cache", type=int, default=128,
                         metavar="N",
                         help="cache up to N window results per corpus "
                              "generation (0 disables; default 128)")
    p_serve.add_argument("--allow-faults", action="store_true",
                         help="accept fault-injection requests (chaos "
                              "testing only)")
    p_serve.set_defaults(func=_cmd_serve)

    p_repl = sub.add_parser(
        "repl", help="interactive query REPL (local or remote)"
    )
    p_repl.add_argument("files", nargs="*", metavar="FILE")
    p_repl.add_argument("--store", metavar="DIR", default=None,
                        help="query a corpus store (opened read-only)")
    p_repl.add_argument("--random", type=int, default=None, metavar="N",
                        help="query N synthetic trees instead of files")
    p_repl.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="talk to a running repro serve instead")
    p_repl.add_argument("--workers", type=int, default=0,
                        help="worker processes per batch (local mode)")
    p_repl.set_defaults(func=_cmd_repl)

    p_oracle = sub.add_parser(
        "oracle",
        help="differential fuzzing across the query engines",
        add_help=False,
    )
    p_oracle.add_argument("oracle_args", nargs="*",
                          help="arguments for python -m repro.oracle")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_res = sub.add_parser(
        "resilience",
        help="fault-injection campaigns over the resilient executor",
        add_help=False,
    )
    p_res.add_argument("resilience_args", nargs="*",
                       help="arguments for python -m repro.resilience")
    p_res.set_defaults(func=_cmd_resilience)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "oracle":
        # Forward verbatim: the oracle owns its own flags, and argparse
        # (3.13+) refuses REMAINDER args that start with an option.
        return _cmd_oracle(argparse.Namespace(oracle_args=argv[1:]))
    if argv and argv[0] == "resilience":
        return _cmd_resilience(argparse.Namespace(resilience_args=argv[1:]))
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
