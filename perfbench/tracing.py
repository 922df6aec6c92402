"""Spans around calls into the layers of eseds, recorded from outside.

Nothing in ``src/`` is edited: the tracer replaces module globals, class
attributes and instance attributes with wrappers for the length of a traced
phase, and ``uninstall`` puts the originals back.  Each span records its
operation id, its own id, its parent's id, its name and its start and end.
The first ``SPAN_CAP`` spans are kept in memory and written out at exit;
per-name totals (calls, busy time, self time) cover every span, capped or
not, so per-layer figures never depend on the cap.

A span's self time is its duration minus the time its child spans cover.
The tracer keeps one stack, so it assumes one thread calls into the traced
layers at a time: true for the benchmark's single closed-loop client and for
the server child, which serves that one client's connection.
"""

from __future__ import annotations

import json
import time

SPAN_CAP = 100_000

#: store methods the server calls; wrapped on a proxy so calls the store
#: makes into itself (``insert_at`` reading every cell) are not boundaries
STORE_CALLS = ("get_cell", "insert_at", "insert_between", "rebalance_step")


class Tracer:
    def __init__(self):
        self.op = 0  # id of the operation in flight; -1 marks set-up, 0 unknown
        self.spans: list[tuple] = []
        self.dropped = 0
        self.totals: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 1
        self._restore: list[tuple] = []

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` (a string, or a function of the
        call's arguments returning one) around every call."""
        stack, totals, spans = self._stack, self.totals, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            if self.op < 0:
                label = "setup." + label
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tot = totals.get(label)
                if tot is None:
                    tot = totals[label] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                if self.op < 0:
                    pass  # set-up spans are totalled under "setup.*", not kept
                elif len(spans) < SPAN_CAP:
                    spans.append((self.op, sid, parent, label, t0, t1))
                else:
                    self.dropped += 1

        return traced

    def patch(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, original.__func__)))
        else:
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def install_client(self, eseds) -> None:
        """Client-process layers: the core operations, cipher calls made by
        core and set-up, and the frame codec (which the in-process server
        shares)."""
        for op in ("search_range", "read_values", "top_k", "insert"):
            self.patch(eseds.core, op, "core." + op)
        self.patch(eseds.cipher, "encrypt", "cipher.encrypt")
        self.patch(eseds.core, "encrypt", "cipher.encrypt")
        self.patch(eseds.core, "decrypt", "cipher.decrypt")
        self.patch(eseds.cipher.Ciphertext, "from_bytes", "cipher.parse")
        self.patch(eseds.cipher.Ciphertext, "to_bytes", "cipher.parse")
        self.install_codec(eseds)

    def install_codec(self, eseds) -> None:
        self.patch(eseds.transport, "encode", "transport.encode")
        self.patch(eseds.transport, "decode", "transport.decode")

    def install_server(self, server) -> None:
        """Server dispatch per opcode, and the store calls dispatch makes."""
        self.patch(server, "handle", lambda msg: "transport.server.handle." + snake(type(msg).__name__))
        self._restore.append((server, "store", server.store))
        server.store = StoreProxy(server.store, self)

    def summary(self) -> dict:
        return {name: list(tot) for name, tot in self.totals.items()}

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines, times in microseconds from the first span."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write(json.dumps({**header, "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                out.write(json.dumps([op, sid, parent, name,
                                      round((t0 - base) * 1e6, 3), round((t1 - base) * 1e6, 3)]) + "\n")


class StoreProxy:
    """Stands in for the store a ``StoreServer`` holds: the calls dispatch
    makes are traced as ``store.<method>``; everything else passes through."""

    def __init__(self, store, tracer: Tracer):
        self._store = store
        for attr in STORE_CALLS:
            if hasattr(store, attr):
                setattr(self, attr, tracer.wrap("store." + attr, getattr(store, attr)))

    def __len__(self) -> int:
        return len(self._store)

    def __getattr__(self, attr):
        return getattr(self._store, attr)


def snake(name: str) -> str:
    """Request class name to opcode name: ``GetCell`` -> ``get_cell``."""
    return "".join("_" + c.lower() if c.isupper() else c for c in name).lstrip("_")


def merge(totals: dict, other: dict) -> None:
    for name, (calls, busy, own) in other.items():
        tot = totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += calls
        tot[1] += busy
        tot[2] += own
