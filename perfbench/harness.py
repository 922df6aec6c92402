"""Set-up, the closed loop, the plaintext oracle and the metrics of one run.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` does it).
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right, insort
from pathlib import Path

import cryptography
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

import eseds
from eseds import cipher, core, store, transport
from eseds.core import CoinSource, Domain, RangeQuery

import tracing
from workloads import REBALANCE_BATCH, SETUPS, TOP_K

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
FAILED = object()
#: printed in the table, left out of the JSON result.  On a shared 2-vCPU
#: host, whole runs fall into a fast or a slow regime, so a run's median moved
#: by about 30% between runs; the tails, and the slow blocks that set
#: ``ops_per_s``, fall in the slow regime in every run and held within 16%
TABLE_ONLY = {f"{kind}_p50_ms" for kind in ("search", "topk", "insert", "rebalance")}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def zipf_weights(domain: int) -> list[float]:
    return [1.0 / (v + 1) for v in range(domain)]


def make_values(spec, seed) -> list[int]:
    rng = random.Random(f"{seed}/values")
    if spec.zipf:
        return rng.choices(range(spec.domain), zipf_weights(spec.domain), k=spec.n)
    return rng.sample(range(spec.domain), spec.n)


def operations(spec, seed):
    """The endless seeded operation stream of (kind, argument) pairs, in
    blocks that hold the mix exactly (``spec.mix`` gives counts per block)
    in a seeded order, so runs of one length do the same mix of work."""
    rng = random.Random(f"{seed}/ops")
    block = [kind for kind, count in spec.mix.items() for _ in range(count)]
    weights = zipf_weights(spec.domain) if spec.zipf else None
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "search":
                a = rng.randrange(spec.domain - spec.span + 1)
                yield kind, (a, a + spec.span - 1)
            elif kind == "insert":
                yield kind, (rng.choices(range(spec.domain), weights)[0] if weights else rng.randrange(spec.domain))
            else:
                yield kind, None


def write_decoupled(path: Path, cells: list[bytes]) -> None:
    """A mode-1 store file as docs/formats.md lays it out: header, then
    (256-bit big-endian sparse index, cell blob) records at equal spacing."""
    step = (1 << 256) // (len(cells) + 1)
    with open(path, "wb") as out:
        out.write(b"ESEDS\x00" + struct.pack("<HBHQ", 1, store.MODE_DECOUPLED, 256, len(cells)))
        for p, cell in enumerate(cells):
            out.write(((p + 1) * step).to_bytes(32, "big") + struct.pack("<I", len(cell)) + cell)


def is_rotation_of_sorted(values: list[int], model: list[int]) -> bool:
    """The decrypted array holds exactly the model's multiset, and reading it
    cyclically has at most one descent (so it is a rotation of sorted)."""
    if sorted(values) != model:
        return False
    n = len(values)
    return sum(values[i] > values[(i + 1) % n] for i in range(n)) <= 1


def budget_log(n: int) -> int:
    return (n - 1).bit_length()  # ceil(log2 n) for n >= 1


# ---------------------------------------------------------------------------
# one set-up store driven by the closed loop
# ---------------------------------------------------------------------------


class Phase:
    """One store built from the seed, the session to it, the plaintext
    model it must agree with, and everything measured while driving it."""

    def __init__(self, spec, seed, tag: str, tracer: tracing.Tracer | None = None):
        self.spec, self.seed, self.tracer = spec, seed, tracer
        self.dom = Domain(spec.domain)
        stem = OUT / f"{spec.name}-{os.getpid()}-{tag}"
        self.path = stem.with_suffix(".db")
        self.check_path = stem.with_suffix(".check")
        self.spans_path = OUT / f"spans-{spec.name}-seed{seed}-server.jsonl"
        self.ops = operations(spec, seed)
        self.coins = CoinSource(f"{seed}/coins")
        self.session = self.store = self.proc = None
        self.rounds = 0
        self.latencies: list[float] = []
        self.done = 0  # mix operations run, closing rebalance hints not included
        self.block_busy = 0.0  # operation time of the block in progress
        self.block_rates: list[float] = []  # operations per second of each whole mix block
        self.samples: dict[str, list[float]] = {kind: [] for kind in spec.mix}
        self.attempted = self.failed = self.violations = self.local_rebalances = 0
        self.fetches = dict.fromkeys(spec.mix, 0)
        self.scans = dict.fromkeys(spec.mix, 0)  # operations that fetched >= n cells
        self.requests = self.wire_bytes = 0
        self.search_budget = self.insert_budget = 0.0
        self.server_report: dict = {}

    # -- set-up and teardown ------------------------------------------------

    def setup(self) -> float:
        """Build, save and load the store and connect; returns the seconds taken."""
        OUT.mkdir(exist_ok=True)
        if self.tracer:
            self.tracer.op = -1
        t0 = time.perf_counter()
        values = sorted(make_values(self.spec, self.seed))
        self.key = cipher.keygen()
        cells = [cipher.encrypt(self.key, v, self.spec.domain).to_bytes() for v in values]
        rot = random.Random(f"{self.seed}/layout").randrange(len(cells))
        cells = cells[rot:] + cells[:rot]
        if self.spec.decoupled:
            write_decoupled(self.path, cells)
        else:
            store.DenseStore(cells).save(self.path)
        self.initial = values
        self.file_bytes = self.path.stat().st_size
        self.open_round()
        return time.perf_counter() - t0

    def open_round(self) -> None:
        self.model = list(self.initial)
        self.left = self.spec.round_ops or None
        rotation_seed = f"{self.seed}/rotation/{self.rounds}"
        if self.spec.tcp:
            spans = str(self.spans_path) if self.tracer else "-"
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "server_child.py"), str(self.path), rotation_seed,
                 str(self.check_path), spans],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            self.session = transport.TcpSession("127.0.0.1", int(self.proc.stdout.readline()))
        else:
            self.store = store.load(self.path)
            # seeded rotations make fetch counts repeat; store.load has no rng parameter
            self.store._rng = random.Random(rotation_seed)
            server = transport.StoreServer(self.store)
            if self.tracer:
                self.tracer.install_server(server)
            self.session = transport.LocalSession(server)
        if self.tracer:
            self.tracer.patch(self.session, "request", "transport.request")

    def close_round(self) -> None:
        """Finish a decoupled round's rebalance pass, stop serving, and check
        the whole store against the model."""
        if self.spec.decoupled:
            for _ in range(2 * (len(self.model) // REBALANCE_BATCH + 2)):
                if self.step("rebalance", None) is True:
                    break
            self.local_rebalances += self.store.collisions
        cells = None if self.spec.tcp else self.store.logical_cells()
        self.teardown()
        if cells is None:
            cells = store.load(self.check_path).logical_cells()
        aead = AESGCM(self.key.bytes)
        values = [
            int.from_bytes(aead.decrypt(c[: cipher.NONCE_LEN], c[cipher.NONCE_LEN :], None), "big")
            for c in cells
        ]
        if not is_rotation_of_sorted(values, self.model):
            self.violations += 1
        self.rounds += 1

    def teardown(self) -> None:
        """Close the session and stop the server child; idempotent."""
        if self.session is not None and self.spec.tcp:
            self.session.close()
        self.session = None
        if self.proc is not None:
            proc, self.proc = self.proc, None
            try:
                proc.stdin.close()
                line = proc.stdout.readline()
                proc.wait(timeout=60)
                if proc.returncode != 0:
                    raise RuntimeError(f"server child exited with {proc.returncode}")
                self.server_report = json.loads(line)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()

    def close(self) -> None:
        self.teardown()
        for path in (self.path, self.check_path):
            path.unlink(missing_ok=True)

    # -- the closed loop ----------------------------------------------------

    def run(self, *, until: float | None = None, blocks: int | None = None) -> None:
        """Run mix operations until the deadline, or until ``blocks`` whole
        blocks of the mix have run in this phase."""
        block_len = sum(self.spec.mix.values())
        while until is None or time.perf_counter() < until:
            if blocks is not None and self.done == blocks * block_len:
                break
            if self.left == 0:
                self.close_round()
                self.open_round()
            self.step(*next(self.ops))
            self.done += 1
            self.block_busy += self.latencies[-1]
            if self.done % block_len == 0:
                self.block_rates.append(block_len / self.block_busy)
                self.block_busy = 0.0
            if self.left:
                self.left -= 1

    def execute(self, kind, arg):
        key, s, dom = self.key, self.session, self.dom
        if kind == "search":
            res = core.search_range(key, s, RangeQuery(*arg), dom)
            probes = s.stats.cells_fetched
            pairs = core.read_values(key, s, res, dom) if self.spec.read_back else None
            return res, pairs, probes
        if kind == "topk":
            return core.top_k(key, s, TOP_K, dom)
        if kind == "insert":
            return core.insert(key, s, arg, dom, self.coins)
        return s.rebalance(REBALANCE_BATCH)

    def step(self, kind, arg):
        s, tracer = self.session, self.tracer
        req0, bytes0, fetch0 = s.stats.requests_sent, s.stats.bytes_on_wire, s.stats.cells_fetched
        n = len(self.model)
        self.attempted += 1
        run = self.execute
        if tracer:
            tracer.op = self.attempted
            run = tracer.wrap("op." + kind, run)
        t0 = time.perf_counter()
        try:
            out = run(kind, arg)
        except Exception:  # a failing operation is a result to count, not a crash
            out = FAILED
            if self.failed < 3:
                traceback.print_exc(limit=4, file=sys.stderr)
        elapsed = time.perf_counter() - t0
        # everything below is outside the timed interval
        self.latencies.append(elapsed)
        self.samples[kind].append(elapsed)
        fetched = s.stats.cells_fetched - fetch0
        self.fetches[kind] += fetched
        self.requests += s.stats.requests_sent - req0
        self.wire_bytes += s.stats.bytes_on_wire - bytes0
        if kind != "rebalance" and fetched >= n:
            self.scans[kind] += 1
        if out is not FAILED and kind == "search":
            budget = 2 * (budget_log(n) + 3)
            self.search_budget = max(self.search_budget, (out[2] - fetch0) / budget)
        if out is not FAILED and kind == "insert":
            self.insert_budget = max(self.insert_budget, fetched / (budget_log(n) + 2))
        if out is FAILED or not self.agrees(kind, arg, out):
            self.failed += 1
        return out

    def agrees(self, kind, arg, out) -> bool:
        """Check one result against the sorted plaintext model."""
        model = self.model
        if kind == "search":
            res, pairs, _ = out
            lo, hi = bisect_left(model, arg[0]), bisect_right(model, arg[1])
            if pairs is None:
                return res.count == hi - lo
            return sorted(v for _, v in pairs) == model[lo:hi]
        if kind == "topk":
            return out == model[:TOP_K]
        if kind == "insert":
            insort(model, arg)
            return out == len(model)
        return True  # a hint answers only "pass done"; searches and the round check see its effect

    # -- figures --------------------------------------------------------------

    def ops_per_s(self) -> float:
        """The rate 90% of the run's whole blocks of the mix sustain (their
        10th percentile); over all operations when no block completed."""
        if self.block_rates:
            return percentile(sorted(self.block_rates), 10)
        return len(self.latencies) / sum(self.latencies)

    def peak_rss_mb(self) -> float:
        if self.spec.tcp:
            return self.server_report["peak_rss_mb"]
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def measure(spec, seed: int, seconds: float):
    """Drive one set-up for ``seconds`` of measuring, and time SETUPS set-ups
    in all: the measured one, then the others spread over the run, so the
    median samples the host across the run and not in one burst."""
    phase = Phase(spec, seed, "measured")
    try:
        setup_times = [phase.setup()]
        paused, start = 0.0, time.perf_counter()
        for i in range(1, SETUPS + 1):
            phase.run(until=start + paused + seconds * i / SETUPS)
            if i < SETUPS:
                t0 = time.perf_counter()
                extra = Phase(spec, seed, f"setup{i}")
                try:
                    setup_times.append(extra.setup())
                finally:
                    extra.close()
                paused += time.perf_counter() - t0
        phase.close_round()
    finally:
        phase.close()
    return [phase], end_to_end(phase, setup_times)


def measure_traced(spec, seed: int, env: dict):
    """The same operations untraced and then traced, each from a fresh set-up."""
    untraced = Phase(spec, seed, "untraced")
    try:
        untraced.setup()
        untraced.run(blocks=spec.trace_blocks)
        untraced.close_round()
    finally:
        untraced.close()
    tracer = tracing.Tracer()
    tracer.install_client(eseds)
    traced = Phase(spec, seed, "traced", tracer)
    try:
        traced.setup()
        traced.run(blocks=spec.trace_blocks)
        traced.close_round()
    finally:
        tracer.uninstall()
        traced.close()
    tracer.write(OUT / f"spans-{spec.name}-seed{seed}.jsonl", {"process": "client", **env})
    return [untraced, traced], per_layer(traced, untraced, tracer)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(sorted_xs: list[float], p: float) -> float:
    """Linearly interpolated percentile (p = 50 is the median)."""
    pos = (len(sorted_xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail(xs: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest sample, with its percentile; the median below 21 samples."""
    if len(xs) < 21:
        return percentile(sorted(xs), 50), 50.0
    return sorted(xs)[-11], 100.0 * (len(xs) - 10) / len(xs)


def end_to_end(phase: Phase, setup_times: list[float]):
    """(name, value, unit, note) rows; the mix decides which latencies appear."""
    rows = [
        ("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        ("ops_per_s", phase.ops_per_s(), "1/s",
         f"p10 of {len(phase.block_rates)} blocks, {len(phase.latencies)} operations"),
    ]
    for kind, xs in phase.samples.items():
        value, p = tail(xs)
        rows.append((f"{kind}_p50_ms", percentile(sorted(xs), 50) * 1e3, "ms", f"n={len(xs)}"))
        rows.append((f"{kind}_tail_ms", value * 1e3, "ms", f"p{p:.2f}, n={len(xs)}"))
    rows.append(("peak_rss_mb", phase.peak_rss_mb(), "MB", "server child" if phase.spec.tcp else "this process"))
    return rows


def per_layer(traced: Phase, untraced: Phase, tracer: tracing.Tracer):
    """(name, value, unit, note) rows from the traced phase's spans and counts."""
    spec = traced.spec
    totals = tracer.summary()
    server = traced.server_report.get("totals", {})
    if server:
        # the server's top-level spans sit inside the client's request span in
        # wall time; take them out of its self time before merging processes
        busy = sum(t[1] for name, t in server.items()
                   if name in ("transport.encode", "transport.decode") or name.startswith("transport.server."))
        totals["transport.request"][2] -= busy
        tracing.merge(totals, server)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def mean_us(*names):
        n = sum(calls(x) for x in names)
        return sum(totals[x][1] for x in names if x in totals) / n * 1e6 if n else 0.0

    ops = traced.attempted
    handles = [x for x in totals if x.startswith("transport.server.handle.")]
    request_us = mean_us("transport.request")
    rows = [
        ("cipher.decrypt.us", mean_us("cipher.decrypt"), "us", "per call"),
        ("cipher.parse.us", mean_us("cipher.parse"), "us", "Ciphertext.from_bytes/to_bytes, per call"),
        ("cipher.encrypt.us", mean_us("cipher.encrypt", "setup.cipher.encrypt"), "us", "per call, set-up included"),
        ("cipher.decrypt.calls_per_op", calls("cipher.decrypt") / ops, "count", ""),
        ("transport.codec.us",
         (totals["transport.encode"][1] + totals["transport.decode"][1]) / calls("transport.encode") * 1e6,
         "us", "encode + decode, per frame"),
        ("transport.request.us", request_us, "us", "per request, client side"),
        ("transport.wire_us", request_us - mean_us(*handles), "us", "request minus server handle"),
        ("transport.round_trips_per_op", traced.requests / ops, "count", ""),
        ("transport.bytes_per_op", traced.wire_bytes / ops, "B", "both directions"),
    ]
    opcodes = ["get_cell", "length"] + (["insert_between", "rebalance_hint"] if spec.decoupled else ["insert_at"])
    rows += [(f"transport.server.handle.{op}.us", mean_us(f"transport.server.handle.{op}"), "us", "per request")
             for op in opcodes]
    rows += [(f"core.fetches_per_{kind}", traced.fetches[kind] / max(1, len(traced.samples[kind])), "count", "")
             for kind in ("search", "insert", "topk") if kind in spec.mix]
    rows.append(("core.full_scans", sum(traced.scans.values()), "count", "operations that fetched >= n cells: "
                 + ", ".join(f"{kind} {traced.scans[kind]}/{len(traced.samples[kind])}" for kind in spec.mix)))
    if "search" in spec.mix:
        rows.append(("core.search_budget_ratio", traced.search_budget, "ratio", "worst search vs 2(ceil(log2 n)+3)"))
    if "insert" in spec.mix:
        rows.append(("core.insert_budget_ratio", traced.insert_budget, "ratio", "worst insert vs ceil(log2 n)+2"))
    store_calls = ["get_cell"] + (["insert_between", "rebalance_step"] if spec.decoupled else ["insert_at"])
    rows += [(f"store.{call}.us", mean_us(f"store.{call}"), "us", "per call") for call in store_calls]
    for layer in ("core", "cipher", "transport", "store"):
        own = sum(t[2] for name, t in totals.items() if name.startswith(layer + "."))
        rows.append((f"{layer}.self_us_per_op", own / ops * 1e6, "us", "self time from spans"))
    if spec.decoupled:
        rows.append(("store.local_rebalances", traced.local_rebalances, "count", "DecoupledStore.collisions"))
    rows += [
        ("store.file_bytes_per_value", traced.file_bytes / (8 * spec.n), "ratio", "saved file over 8 B per value"),
        ("store.invariant_violations", traced.violations, "count", f"of {traced.rounds} end-of-round checks"),
        ("trace.overhead_ratio", _busy_rate(traced) / _busy_rate(untraced), "ratio",
         "traced over untraced ops/s, same operations"),
    ]
    return rows


def _busy_rate(phase: Phase) -> float:
    return len(phase.latencies) / sum(phase.latencies)


def environment(spec) -> dict:
    from cryptography.hazmat.backends.openssl.backend import backend

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "transport": "TcpSession over loopback 127.0.0.1" if spec.tcp else "LocalSession in process",
        "eseds": eseds.__version__,
    }
