"""A reference engine, for differential tests of the production engine and
correct node (McKeeman, "Differential testing for software", Digital
Technical Journal 1998).

`ReferenceEngine` states the engine's semantics plainly, with none of its
hot-path work: no fan-out loop over the neighbour index, no digest carried
by a delivery, no link-change stretches and no memo.
- Every link change up to end_time is one heap push.
- A message digest is blake2b over `encode_fields`, computed on every call.
- Every line is written by `_record`, which renders `now` with `repr`.
- A frame reaches every roster node in id order whose link to the sender
  is up throughout the transmission window, one `_push` each.
- The loop pops while the head's time is at most end_time, and calls each
  handler by name, so the overrides here run in place of the engine's.
- The trace digest is blake2b-64 over every line with its line break,
  encoded in one piece.
It keeps `_push`, `_delay`, the link-layer primitives and the event
handlers, which state what a frame does.

`reference_build` wires a scenario as `build` does, with `ReferenceEngine`
and `reference_node.ReferenceSrpNode`, the frozen correct node, in place.
"""

from __future__ import annotations

import hashlib
import heapq
from contextlib import contextmanager

from srpsim import Engine, build, scenario
from srpsim.identity import encode_fields

from reference_node import ReferenceSrpNode


class ReferenceEngine(Engine):
    def seed_link_changes(self) -> None:
        changes = sorted((t, state, s.edge) for s in self.schedules._by_edge.values()
                         for a, b in s.up_intervals
                         for t, state in ((a, "up"), (b, "down")))
        for t, state, (u, v) in changes:
            if t <= self.config.end_time:
                self._push(t, Engine._record, (u, "link", "-", state, f"{u}-{v}"))

    def _digest(self, msg) -> str:
        if msg is None:
            return "-"
        return hashlib.blake2b(encode_fields(msg.wire_fields()), digest_size=4).hexdigest()

    def _record(self, node, primitive, digest, outcome, detail="") -> None:
        self._seq += 1
        self.lines.append(f"{self.now!r} {self._seq} {node} {primitive} {digest} "
                          f"{outcome} {detail}")

    def trace_step(self, node, outcome, detail, msg=None) -> None:
        self._record(node, "step", self._digest(msg), outcome, detail)

    def _fan_out(self, sender, msg, digest, receiver) -> None:
        t0, t1 = self.now, self.now + self.config.tx_time
        for v in sorted(self.nodes):
            if v not in (sender, receiver) and self.schedules.covers(sender, v, t0, t1):
                self._push(self.now + self._delay(), Engine._deliver,
                           (v, msg, sender, receiver is None, digest))

    def _deliver(self, node, msg, transmitter, addressed, digest) -> None:
        primitive = "receive_l" if addressed else "overhear"
        self._record(node, primitive, self._digest(msg), "delivered", transmitter)
        self.nodes[node].on_deliver(self, msg, transmitter, addressed, self.now)

    def trace_digest(self) -> int:
        data = "".join(line + "\n" for line in self.lines).encode()
        return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")

    def run(self):
        while self._queue and self._queue[0][0] <= self.config.end_time:
            self.now, _, handler, args = heapq.heappop(self._queue)
            getattr(self, handler.__name__)(*args)
        return self.trace


@contextmanager
def _reference_wiring():
    saved = scenario.Engine, scenario.SrpNode
    scenario.Engine, scenario.SrpNode = ReferenceEngine, ReferenceSrpNode
    try:
        yield
    finally:
        scenario.Engine, scenario.SrpNode = saved


def reference_build(scen, seed=None) -> ReferenceEngine:
    with _reference_wiring():
        return build(scen, seed)


def run_both(scen, seed=None):
    """(production engine, reference engine), each after running `scen`
    under `seed`."""
    got, want = build(scen, seed), reference_build(scen, seed)
    got.run()
    want.run()
    return got, want
