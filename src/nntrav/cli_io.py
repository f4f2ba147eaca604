"""What the command-line core and its subcommand handlers share: the exit
codes, the generate families' options, JSON reading and writing, instance
and sidecar loading, seeds, and trace-file output.

Handlers import from here, never from ``nntrav.cli``: under
``python -m nntrav.cli`` the core runs as ``__main__``, and importing it by
name would compile it a second time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .graph import CostFunction, Graph, GraphError, instance_from_json_obj

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4

# generate family -> its options, in the order a missing one is reported
GENERATE_PARAMS = {
    "lr-pow2": ("m", "k"),
    "lr-general": ("nu", "k"),
    "lr-padded": ("nu", "k", "n"),
    "dfs-killer": ("n",),
    "complete": ("n",),
    "path": ("n",),
    "random-metric": ("n", "max_cost"),
}


def split_seed(seed: int, tag: str) -> int:
    """Derive an independent child seed; stable across runs and platforms."""
    import hashlib

    digest = hashlib.sha256(f"{seed}/{tag}".encode()).hexdigest()
    return int(digest[:16], 16)


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("NNTRAV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GraphError(f"NNTRAV_SEED must be an integer, got {env!r}") from None
    return 0


_BLOCK_ROWS = 256  # rows per block: bounds the text held at once


def _write_json(path: str | None, obj: object) -> None:
    """``obj`` as sorted, 2-space indented JSON plus a newline, to ``path`` or
    stdout: the bytes of ``json.dump(obj, fh, indent=2, sort_keys=True)``,
    written piece by piece rather than built as one string."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        _dump_json(obj, fh.write, "\n")
        fh.write("\n")


def _dump_json(obj: object, write, nl: str) -> None:
    """Write ``obj`` as ``json.dump(indent=2, sort_keys=True)`` does at the
    depth whose line break and indent are ``nl``.

    A flat int list, or a list of nonempty int lists (edges, weight triples),
    is written in blocks of _BLOCK_ROWS rows, each block from one ``%``
    template joined from one indented template per row length: a single
    C-level format call per block.  json's indenting encoder is pure Python
    and visits every int one call at a time.
    """
    if type(obj) is str:
        write(encode_basestring_ascii(obj))
        return
    if type(obj) is int:
        write(repr(obj))
        return
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key, value in sorted(obj.items()):
            # json writes a non-string key as the text of its value, quoted
            key = key if isinstance(key, str) else json.dumps(key)
            write(sep + inner + encode_basestring_ascii(key) + ": ")
            _dump_json(value, write, inner)
            sep = ","
        write(nl + "}")
        return
    if not isinstance(obj, (list, tuple)) or not obj:  # bools, None, floats, {}, []
        write(json.dumps(obj))
        return
    comma = "," + inner
    blocks = (obj[start:start + _BLOCK_ROWS] for start in range(0, len(obj), _BLOCK_ROWS))
    if {int}.issuperset(map(type, obj)):
        texts = (comma.join(["%d"] * len(block)) % tuple(block) for block in blocks)
    elif ({list}.issuperset(map(type, obj)) and all(obj)
          and {int}.issuperset(map(type, chain.from_iterable(obj)))):
        deep = inner + "  "
        row = {size: "[" + deep + ("," + deep).join(["%d"] * size) + inner + "]"
               for size in set(map(len, obj))}
        texts = (comma.join(map(row.__getitem__, map(len, block)))
                 % tuple(chain.from_iterable(block)) for block in blocks)
    else:
        sep = "["
        for item in obj:
            write(sep + inner)
            _dump_json(item, write, inner)
            sep = ","
        write(nl + "]")
        return
    sep = "["
    for text in texts:
        write(sep + inner + text)
        sep = ","
    write(nl + "]")


def _read_json(path: str) -> object:
    """The parsed JSON file.  A file json cannot parse, or that is not UTF-8,
    nests past the recursion limit or holds an int literal past the
    int-conversion limit, raises OSError: every case is exit 4."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:  # JSONDecodeError and UnicodeDecodeError too
            raise OSError(f"invalid JSON: {err}") from None


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _sidecar_path(output: str) -> Path:
    p = Path(output)
    return p.with_name(p.stem + ".sidecar.json")


def _load_instance(path: str) -> tuple[Graph, CostFunction, dict]:
    """Read an instance file; returns graph, cost function, and the parsed JSON."""
    obj = _read_json(path)
    graph, cost = instance_from_json_obj(obj)
    if cost is None:
        cost = CostFunction.hop_metric(graph)
    return graph, cost, obj


def _sidecar(path: str, obj: dict) -> dict:
    """The instance's embedded "sidecar" key, else a neighboring
    <stem>.sidecar.json file, else an empty dict."""
    sidecar = obj.get("sidecar")
    if sidecar is None:
        side_path = _sidecar_path(path)
        if side_path.exists():
            sidecar = _read_json(str(side_path))
    return sidecar if isinstance(sidecar, dict) else {}


@contextlib.contextmanager
def _trace_output(output: str | None):
    """Yield ``write`` for a run's trace lines, each with its newline.

    The lines stream to a sibling temporary file that replaces ``output``
    (the file a symlink names) when the block succeeds, or without
    ``output`` to a temporary file that is then copied to stdout.  A run that
    fails leaves ``output`` as it was and prints nothing, and no trace is
    ever held in memory whole.  An ``output`` that exists but is no regular
    file, such as a pipe or ``/dev/stdout``, cannot be replaced and is
    written in place.
    """
    if output is None:
        import shutil
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
            yield fh.write
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
        return
    if os.path.exists(output) and not os.path.isfile(output):
        with open(output, "w", encoding="utf-8") as fh:
            yield fh.write
        return
    target = os.path.realpath(output)
    part = f"{target}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            yield fh.write
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _trace_result(trace, summary: dict | None) -> int:
    """Print ``summary`` (the stdout report of a run with a trace file), once
    the trace is in place, and return the run's exit code."""
    if summary is not None:
        _write_json(None, summary)
    return EXIT_BUDGET if trace.outcome == "budget-exhausted" else EXIT_OK
