"""The trace of a run: its line type, whole-trace passes and stored form.
Reading a trace needs no engine: of srpsim, only `srp.RouteRecord` is used."""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Iterable, NamedTuple, Optional

from .srp import RouteRecord


class TraceEvent(NamedTuple):
    """One line of the replayable run log, parsed."""

    time: float
    seq: int
    node: str
    primitive: str
    digest: str
    outcome: str
    detail: str

    def line(self) -> str:
        return (
            f"{self.time!r} {self.seq} {self.node} {self.primitive} "
            f"{self.digest} {self.outcome} {self.detail}"
        )


def parse_trace_line(line: str) -> TraceEvent:
    time, seq, node, primitive, digest, outcome, detail = line.split(" ", 6)
    return TraceEvent(float(time), int(seq), node, primitive, digest, outcome, detail)


class TraceView:
    """Read-only view of a run's trace.  `lines` is the rendered text, the
    only record the engine keeps; each item read through the view is a
    TraceEvent parsed from its line."""

    def __init__(self, lines: list[str]):
        self.lines = lines

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return map(parse_trace_line, self.lines)


# lines per slice of a whole-trace pass: each pass holds one slice's text,
# never a second copy of the whole trace
_CHUNK = 1 << 10


def line_chunks(lines: Iterable[str]):
    """The lines in order, as list slices of at most _CHUNK lines; an
    iterable that is not a list is read into one first."""
    if not isinstance(lines, list):
        lines = list(lines)
    return (lines[i:i + _CHUNK] for i in range(0, len(lines), _CHUNK))


def trace_digest_of_lines(lines: Iterable[str]) -> int:
    """blake2b-64 of the lines, each ended by a line break."""
    h = hashlib.blake2b(digest_size=8)
    for chunk in line_chunks(lines):
        h.update("\n".join(chunk).encode())
        h.update(b"\n")
    return int.from_bytes(h.digest(), "big")


TRACE_HEADER = "# srpsim-trace scenario="

# the two step lines a stored record is derived from
_QUERY = re.compile(r"(\S+) \d+ (\S+) step \S+ query dst=(\S+) qid=(\S*) ")
_ACCEPT = re.compile(r"(\S+) \d+ \S+ step - accept route=(\S+)")


def _record_lines(records, digest: int) -> list[str]:
    """The `# accepted` record of each accepted route, then the digest footer."""
    return [*("# accepted " + json.dumps({
        "route": list(rec.route), "t1": rec.t1, "t2": rec.t2, "qid": rec.qid,
        "reported": None if rec.reported is None else list(rec.reported),
    }) for rec in records), f"# digest {digest:016x}"]


def _trace_pieces(name: str, seed: int, lines, records, digest: int):
    """The stored form of a run, in order: a header naming the scenario and
    seed, the event lines, then `_record_lines`.  Each slice of event lines
    is one piece, ended by a line break; the header opens the first piece and
    the records and the footer close the last, so a trace of at most one
    slice is one piece."""
    chunks = line_chunks(lines)
    piece = [f"{TRACE_HEADER}{name} seed={seed}", *next(chunks, ())]
    for chunk in chunks:
        yield "\n".join([*piece, ""])
        piece = chunk
    yield "\n".join([*piece, *_record_lines(records, digest), ""])


def render_trace(name: str, seed: int, lines, records, digest: int) -> str:
    """The stored form of a run in one string: `_trace_pieces` joined."""
    return "".join(_trace_pieces(name, seed, lines, records, digest))


def write_trace(path, result) -> None:
    """Store the `render_trace` text of `result` (a `harness.RunResult`) at
    `path` as UTF-8, a piece at a time, so the whole text is never held.

    An existing file is overwritten in place and a stale tail is cut off
    after the write, rather than truncated to zero length first as mode "w"
    does: ext4 starts writing back a file truncated to zero when it is
    closed (its auto_da_alloc heuristic), which costs more than the write.
    The tail is cut only when the file was longer than the new text, so a
    target without a length, such as /dev/null or a pipe, is never
    truncated.  A write that fails part-way leaves a file that `check_trace`
    rejects."""
    pieces = _trace_pieces(result.scenario.name, result.seed, result.trace.lines,
                           result.records, result.digest)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        size = sum(f.write(piece.encode("utf-8")) for piece in pieces)
        if os.fstat(f.fileno()).st_size > size:
            f.truncate()


class TraceFormatError(ValueError):
    """A stored trace that cannot be checked; the message says where."""


def read_trace(path) -> str:
    """A stored trace's text, line breaks as written.  Raises
    TraceFormatError for a file that is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except UnicodeDecodeError:
        raise TraceFormatError(f"{path}: trace file is not UTF-8 text")


def _accepted_routes(lines, stored, augmented: bool) -> list[RouteRecord]:
    """The accepted routes the event lines determine: route and t2 from each
    accept line, t1 and qid from the route source's latest query for its
    destination.  No line carries `reported`: in augmented mode it is the
    stored record's if that holds one int per link, else a value that renders
    differently.  Raises TraceFormatError for an accept line that determines
    no route."""
    queries = {}
    records = []
    for ln in lines:
        if " query dst=" in ln and (m := _QUERY.match(ln)):
            queries[m[2], m[3]] = m[1], m[4]
        elif " step - accept route=" in ln:
            m = _ACCEPT.fullmatch(ln)
            route = tuple(m[2].split(",")) if m else ()
            try:
                t1, qid = queries[route[:1] + route[-1:]]
                t1, t2, qid = float(t1), float(m[1]), int(qid)
            except (KeyError, ValueError):
                t1 = t2 = None
            if len(route) < 2 or t1 is None or not t1 < t2:
                raise TraceFormatError(
                    f"accept line {ln!r} has no earlier query line with an "
                    f"integer qid from its route's source to its destination")
            reported = None
            if augmented:
                at = len(lines) + 1 + len(records)
                try:
                    reported = tuple(json.loads(stored[at][len("# accepted "):])["reported"])
                except (IndexError, KeyError, TypeError, ValueError, RecursionError):
                    reported = ()
                if (len(reported) != len(route) - 1
                        or any(type(x) is not int for x in reported)):
                    reported = (0,) * (len(route) - 1)
            records.append(RouteRecord(route, t1, t2, qid, reported))
    return records


def _first_difference(expected: list[str], found: list[str]) -> Optional[str]:
    """None if the two lists are equal; else a message naming the first line
    where they differ, each side with its line break, as written.  Each list
    is a text split at its line breaks, so its last item is what follows the
    last break: "" when the text ends with one."""
    if expected == found:
        return None
    n = next((n for n, (e, f) in enumerate(zip(expected, found)) if e != f),
             min(len(expected), len(found)) - 1)

    def shown(parts):
        if n + 1 < len(parts):
            return repr(parts[n] + "\n")
        return repr(parts[n]) if parts[n] else "end of file"
    return f"line {n + 1}: expected {shown(expected)}, found {shown(found)}"


def bind_trace(path, name: str, augmented: bool) -> list[RouteRecord]:
    """The accepted routes of the stored trace at `path`, which must be what
    write_trace writes for scenario `name`, its header's seed and its event
    lines.  Raises TraceFormatError naming the first line that differs."""
    stored = read_trace(path).split("\n")
    try:
        seed = int(stored[0].rpartition(" seed=")[2])
    except ValueError:
        raise TraceFormatError(f"line 1: no integer seed: expected '{TRACE_HEADER}"
                               f"{name} seed=<integer>', found {stored[0]!r}")
    lines = [ln for ln in stored if ln and ln[0] != "#"]
    records = _accepted_routes(lines, stored, augmented)
    expected = [f"{TRACE_HEADER}{name} seed={seed}", *lines,
                *_record_lines(records, trace_digest_of_lines(lines)), ""]
    difference = _first_difference(expected, stored)
    if difference is not None:
        raise TraceFormatError(difference)
    return records
