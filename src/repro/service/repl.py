"""The interactive REPL: one command per line, answers printed flat.

The REPL is transport-agnostic: it drives any ``handle(request) ->
response`` callable — a local :class:`~repro.service.session.Dispatcher`
bound to one session (``repro repl FILE…``), or a
:class:`~repro.service.client.ServiceClient` pointed at a running
server (``repro repl --connect HOST:PORT``).  Because both ends speak
the same request dicts, every REPL command exercises exactly the code
path the wire protocol does.

Commands::

    xpath EXPR          ask SENTENCE        select QUERY
    cat EXPR            catrel EXPR         — one query over the corpus
    engine NAME         timeout MS          window START [STOP]
    health              stats               ping
    help                quit

Session options (``engine``/``timeout``/``window``) persist until
changed; errors print as ``error CODE: message`` and never end the
REPL — matching the server's own isolation contract.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, TextIO

from ..corpus.executor import ENGINES
from .protocol import ServiceError, raise_for_error

__all__ = ["run_repl"]

_KIND_COMMANDS = {
    "xpath": "xpath",
    "ask": "ask",
    "select": "select",
    "cat": "caterpillar",
    "catrel": "caterpillar-relation",
}

_HELP = """\
commands:
  xpath EXPR | ask SENTENCE | select QUERY | cat EXPR | catrel EXPR
  engine fast|reference|auto|vectorized    (current engine)
  timeout MS                               (per-query deadline; 0 = none)
  window START [STOP]                      (tree range; no args = all)
  health | stats | ping | help | quit
"""


def _format_cell(kind: str, cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if not cell:
        return "(none)"
    if kind == "caterpillar-relation":
        return ", ".join(
            f"{_node(source)}->{_node(target)}" for source, target in cell
        )
    return ", ".join(_node(node) for node in cell)


def _node(node_id) -> str:
    return "/" + "/".join(str(step) for step in node_id) if node_id else "/"


def run_repl(
    handle: Callable[[dict], dict],
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
    prompt: str = "repro> ",
    interactive: Optional[bool] = None,
) -> int:
    """Drive ``handle`` from ``stdin`` until EOF or ``quit``.

    Returns an exit code: 0 normally, 1 if the connection died."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    if interactive is None:
        interactive = stdin.isatty()
    options = {"engine": "fast"}
    window = {}

    def emit(text: str) -> None:
        print(text, file=stdout)

    while True:
        if interactive:
            stdout.write(prompt)
            stdout.flush()
        line = stdin.readline()
        if not line:
            break
        command, _, rest = line.strip().partition(" ")
        rest = rest.strip()
        if not command:
            continue
        if command in ("quit", "exit"):
            break
        if command == "help":
            emit(_HELP.rstrip())
            continue
        if command == "engine":
            if rest not in ENGINES:
                emit(f"error BAD_REQUEST: unknown engine {rest!r}")
                continue
            options["engine"] = rest
            continue
        if command == "timeout":
            try:
                ms = int(rest)
            except ValueError:
                emit("error BAD_REQUEST: timeout needs an integer of ms")
                continue
            if ms <= 0:
                options.pop("timeout_ms", None)
            else:
                options["timeout_ms"] = ms
            continue
        if command == "window":
            parts = rest.split()
            try:
                if not parts:
                    window.clear()
                elif len(parts) <= 2:
                    window["start"] = int(parts[0])
                    if len(parts) == 2:
                        window["stop"] = int(parts[1])
                    else:
                        window.pop("stop", None)
                else:
                    raise ValueError
            except ValueError:
                emit("error BAD_REQUEST: window takes START [STOP] integers")
            continue
        if command in ("health", "stats", "ping"):
            request = {"op": command}
        elif command in _KIND_COMMANDS:
            if not rest:
                emit(f"error BAD_REQUEST: {command} needs a query text")
                continue
            request = {
                "op": "query",
                "queries": [{"kind": _KIND_COMMANDS[command], "text": rest}],
                "options": {**options, **window},
            }
        else:
            emit(f"error BAD_REQUEST: unknown command {command!r} (try help)")
            continue
        try:
            response = raise_for_error(handle(request))
        except ServiceError as exc:
            suffix = (
                f" (retry after {exc.retry_after_ms}ms)"
                if exc.retry_after_ms is not None
                else ""
            )
            emit(f"error {exc.code}: {exc.message}{suffix}")
            continue
        except (ConnectionError, OSError) as exc:
            emit(f"connection lost: {exc}")
            return 1
        if request["op"] == "query":
            kind = request["queries"][0]["kind"]
            start = request["options"].get("start", 0)
            for offset, row in enumerate(response["results"]):
                emit(f"tree {start + offset}: {_format_cell(kind, row[0])}")
            emit(
                f"[{response['trees']} trees in "
                f"{response['elapsed_ms']:.1f}ms"
                + (
                    f", {response['degraded_chunks']} chunks degraded]"
                    if response.get("degraded_chunks")
                    else "]"
                )
            )
        else:
            emit(_format_payload(response))
    return 0


def _format_payload(response: dict) -> str:
    import json

    payload = {k: v for k, v in response.items() if k != "ok"}
    return json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True)
