"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` replaces the public entry points of each srpsim module
with wrappers that record a span (name, start, end, parent) per call, and a
few counting wrappers.  A function is replaced under every name that refers
to it in any `srpsim` module, so a call is counted once whichever module made
it.  Spans stay in memory until `write()`.

A layer's self time is the total of its spans minus the time of the spans
nested directly in them.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

from srpsim import (adversary, harness, identity, scenario, simcore, srp,
                    verifier)
from srpsim.simcore import Engine, ScheduleMap
from srpsim.srp_qos import QosRuntime

# span name -> the functions and methods it times
SPANS = {
    "harness.gen": [(harness, "random_scenario"), (harness, "accuracy_scenario")],
    "scenario.load": [(scenario, "load_scenario")],
    "scenario.build": [(scenario, "build")],
    "simcore.run": [(Engine, "run")],
    "simcore.link": [(Engine, "bcast_l"), (Engine, "send_l"), (Engine, "tunnel_send")],
    "simcore.msg_digest": [(simcore, "message_digest")],
    "simcore.trace_digest": [(Engine, "trace_digest")],
    "identity.encode": [(identity, "encode_fields")],
    "srp.check": [(srp, "rreq_verdict"), (srp, "rrep_verdict")],
    "srp_qos": [(QosRuntime, "measure_scaled"), (QosRuntime, "consistent"),
                (QosRuntime, "aggregate_scaled")],
    "adversary.gate": [(adversary, "step_adversary")],
    "verifier": [(verifier, "verdict_all")],
    "harness.persist": [(harness, "write_trace"), (harness, "read_trace")],
    "harness.check": [(harness, "check_trace")],
}

# metric name -> (unit, how it is read off the tracer)
PER_LAYER = {
    "harness.gen_ms": ("ms", lambda t: t.ms("harness.gen")),
    "scenario.load_ms": ("ms", lambda t: t.ms("scenario.load")),
    "scenario.build_ms": ("ms", lambda t: t.ms("scenario.build")),
    "simcore.run_ms": ("ms", lambda t: t.ms("simcore.run")),
    "simcore.events": ("count", lambda t: t.counts["events"]),
    "simcore.link_ms": ("ms", lambda t: t.ms("simcore.link")),
    "simcore.frames": ("count", lambda t: t.calls["simcore.link"]),
    "simcore.deliveries": ("count", lambda t: t.counts["deliveries"]),
    "simcore.covers_calls": ("count", lambda t: t.counts["covers"]),
    "simcore.covers_hit_ratio": ("ratio", lambda t: t.counts["covers_hit"] / max(1, t.counts["covers"])),
    "simcore.msg_digest_ms": ("ms", lambda t: t.ms("simcore.msg_digest")),
    "simcore.msg_digest_calls": ("count", lambda t: t.calls["simcore.msg_digest"]),
    "simcore.msg_digest_distinct": ("count", lambda t: len(t.digests)),
    "simcore.trace_digest_ms": ("ms", lambda t: t.ms("simcore.trace_digest")),
    "identity.encode_ms": ("ms", lambda t: t.ms("identity.encode")),
    "identity.mac_calls": ("count", lambda t: t.counts["mac"]),
    "srp.check_ms": ("ms", lambda t: t.ms("srp.check")),
    "srp.discards": ("count", lambda t: t.counts["discards"]),
    "srp_qos.ms": ("ms", lambda t: t.ms("srp_qos")),
    "srp_qos.calls": ("count", lambda t: t.calls["srp_qos"]),
    "adversary.gate_ms": ("ms", lambda t: t.ms("adversary.gate")),
    "adversary.gate_drops": ("count", lambda t: t.counts["gate_drops"]),
    "adversary.emissions": ("count", lambda t: t.counts["emissions"]),
    "verifier.ms": ("ms", lambda t: t.ms("verifier")),
    "verifier.routes": ("count", lambda t: t.counts["routes"]),
    "verifier.witness_searches": ("count", lambda t: t.counts["witness_searches"]),
    "harness.persist_ms": ("ms", lambda t: t.ms("harness.persist")),
    "harness.check_ms": ("ms", lambda t: t.ms("harness.check")),
}


def replace_everywhere(owner, attr, make):
    """Replace owner.attr by make(original).  For a module-level function,
    every srpsim module that imported it gets the replacement too."""
    original = getattr(owner, attr)
    wrapped = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for name, mod in list(sys.modules.items()):
        if name == "srpsim" or name.startswith("srpsim."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.digests: set = set()
        self._stack: list[list] = []  # [span index, ns of nested spans]

    def ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def _span(self, name, fn, after=None):
        spans, stack, self_ns, calls = self.spans, self._stack, self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0]
            rec = [name, 0, 0, stack[-1][0] if stack else -1]
            spans.append(rec)
            stack.append(frame)
            rec[1] = t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = t1 = perf_counter_ns()
                stack.pop()
                self_ns[name] += t1 - t0 - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _count(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result
        return wrapper

    def install(self) -> None:
        counts = self.counts

        def after_run(trace, args):
            counts["events"] += len(trace)
            for te in trace:
                if te.primitive == "receive_l" or te.primitive == "overhear":
                    counts["deliveries"] += 1
                elif te.outcome == "discard":
                    counts["discards"] += 1

        def after_covers(hit, args):
            counts["covers"] += 1
            counts["covers_hit"] += hit

        def after_gate(result, args):
            counts["gate_drops"] += result[0] is not None

        def after_verdicts(result, args):
            counts["routes"] += len(args[0])

        def after_weak(result, args):
            # a search for a detour runs whenever the route is not fresh outright
            counts["witness_searches"] += result != (True, None)

        after = {
            "simcore.run": after_run,
            "simcore.msg_digest": lambda d, args: self.digests.add(d),
            "adversary.gate": after_gate,
            "verifier": after_verdicts,
        }
        for name, targets in SPANS.items():
            for owner, attr in targets:
                replace_everywhere(owner, attr,
                                   lambda fn, n=name: self._span(n, fn, after.get(n)))
        replace_everywhere(ScheduleMap, "covers", lambda fn: self._count(fn, after_covers))
        replace_everywhere(identity, "f_k", lambda fn: self._count(
            fn, lambda r, a: counts.update(("mac",))))
        replace_everywhere(Engine, "note_adversary_emission", lambda fn: self._count(
            fn, lambda r, a: counts.update(("emissions",))))
        replace_everywhere(verifier, "check_weakly_fresh",
                           lambda fn: self._count(fn, after_weak))

    def metrics(self) -> dict:
        return {name: (read(self), unit) for name, (unit, read) in PER_LAYER.items()}

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start and end in ns from the
        first span, and the index of the parent span (-1 for none)."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name}\t{start - t0}\t{end - t0}\t{parent}\n")
