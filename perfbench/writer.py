"""The edit workload's process under test: one ``CorpusStore`` writer.

    python perfbench/writer.py STORE_DIR [SPANS_FILE]

It opens the store for writing, prints ``ready``, then answers
length-prefixed pickled operations from stdin on stdout, one at a time:
``replace`` / ``append`` (a tree), ``read`` (a window query batch on
``engine="auto"``), ``mark`` (a traced-phase boundary) and ``quit``.
Each reply carries the store call's own duration.  With SPANS_FILE the
store's read and write paths are traced and the spans are written there
on ``quit``.
"""

from __future__ import annotations

import pickle
import struct
import sys
import time

_PREFIX = struct.Struct(">I")


def receive(stream):
    head = stream.read(_PREFIX.size)
    if len(head) < _PREFIX.size:
        return None
    (length,) = _PREFIX.unpack(head)
    return pickle.loads(stream.read(length))


def send(stream, message) -> None:
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_PREFIX.pack(len(body)) + body)
    stream.flush()


def _wchar() -> int:
    with open("/proc/self/io", "r") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    store_path = sys.argv[1]
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    tracer = None
    if spans_path:
        from tracer import Tracer, install_gc, install_reads, install_writes

        tracer = Tracer()
        install_writes(tracer)
        install_reads(tracer)
        install_gc(tracer)
    from repro.corpus import CorpusQuery, CorpusStore
    from repro.engine.plans import plan_cache_info

    store = CorpusStore.open(store_path)
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    out.write(b"ready\n")
    out.flush()
    try:
        while True:
            message = receive(inp)
            if message is None or message["op"] == "quit":
                break
            op = message["op"]
            if tracer is not None:
                tracer.set_rid(message.get("rid"))
            if op == "mark":
                if tracer is not None:
                    info = plan_cache_info()
                    tracer.mark(message["label"], [info.hits, info.misses])
                send(out, {"ok": True})
                continue
            written = _wchar() if tracer is not None else 0
            began = time.perf_counter()
            try:
                if op == "replace":
                    store.replace(message["position"], message["tree"],
                                  site=message["site"])
                    reply = {"ok": True}
                elif op == "append":
                    reply = {"ok": True, "position": store.append(message["tree"])}
                elif op == "read":
                    result = store.run(
                        [CorpusQuery(kind, text) for kind, text in message["queries"]],
                        engine="auto", start=message["start"], stop=message["stop"],
                    )
                    reply = {"ok": True, "rows": result.rows}
                else:
                    reply = {"ok": False, "error": f"unknown op {op!r}"}
            except Exception as exc:  # reported to the benchmark, counted failed
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            reply["seconds"] = time.perf_counter() - began
            if tracer is not None:
                reply["wchar"] = _wchar() - written
            send(out, reply)
    finally:
        store.close()
        if tracer is not None:
            tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
