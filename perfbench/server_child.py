"""Serve one saved eseds store over loopback TCP for the benchmark.

    python3 server_child.py STORE ROTATION_SEED CHECK_PATH SPANS_PATH

Loads STORE, seeds the store's rotation randomness with ROTATION_SEED (so
fetch counts repeat), binds an ephemeral port on 127.0.0.1 and prints it on
one line.  It serves until its standard input is closed, then saves the
store to CHECK_PATH for the end-of-run check and prints one JSON line: the
peak RSS of this process and, unless SPANS_PATH is ``-``, the per-name span
totals of the server-side layers (spans go to SPANS_PATH).
"""

from __future__ import annotations

import json
import random
import resource
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eseds  # noqa: E402
from eseds import store, transport  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    store_path, rotation_seed, check_path, spans_path = argv
    st = store.load(store_path)
    st._rng = random.Random(rotation_seed)  # store.load has no rng parameter
    server = transport.serve(st, "127.0.0.1", 0)
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.install_codec(eseds)
        tracer.install_server(server.store_server)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        print(server.server_address[1], flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    if tracer:
        tracer.uninstall()
        tracer.write(spans_path, {"process": "server"})
    st.save(check_path)
    report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        report["totals"] = tracer.summary()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
