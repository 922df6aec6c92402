"""Command-line front end.

Commands: init, insert, query, topk, serve, rebalance, bench, attack,
game.  Data commands run embedded against a store file by default, or
against a running server via --addr.  The secret key lives in a separate
keyfile next to the store; it is created by init, passed to the client
commands, and never appears in the store file or on the wire.

Exit codes: 0 success, 1 user error (bad arguments, bad files, server
rejections), 2 internal error.  Errors print one line to stderr:
``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import struct
import sys

from .. import store as store_mod
from ..cipher import CipherError, SecretKey, keygen
from ..core import (
    CoinSource,
    Domain,
    ProtocolError,
    RangeQuery,
    insert,
    read_values,
    search_range,
    top_k,
)
from ..attacks import ATTACKS, AttackError
from ..store import DecoupledStore, DenseStore, StoreError
from ..transforms import TARGETS
from ..transport import (
    DEFAULT_PORT,
    LocalSession,
    ServerError,
    TcpSession,
    TransportError,
    serve,
)
from .attack import DISTRIBUTIONS, run_attack
from .bench import BenchConfig, run_bench
from .game import ADVERSARIES, GameConfig, GameError, run_game

KEY_MAGIC = b"ESEDSKEY"
_KEY_HEADER = struct.Struct("<HHH")  # version, security_bits, plaintext domain_bits
KEY_VERSION = 1


class UserError(Exception):
    """Bad invocation or bad input files; exits 1."""


# ---------------------------------------------------------------------------
# keyfile
# ---------------------------------------------------------------------------


def default_key_path(store_path: str) -> str:
    return store_path + ".key"


def write_keyfile(path: str, key: SecretKey, domain_bits: int) -> None:
    blob = KEY_MAGIC + _KEY_HEADER.pack(KEY_VERSION, len(key.bytes) * 8, domain_bits) + key.bytes
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    with os.fdopen(fd, "wb") as fh:
        fh.write(blob)


def read_keyfile(path: str) -> tuple[SecretKey, Domain]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise UserError(f"cannot read keyfile: {exc}") from exc
    head = len(KEY_MAGIC) + _KEY_HEADER.size
    if len(blob) < head or blob[: len(KEY_MAGIC)] != KEY_MAGIC:
        raise UserError(f"{path} is not a keyfile")
    version, security_bits, domain_bits = _KEY_HEADER.unpack(blob[len(KEY_MAGIC): head])
    if version != KEY_VERSION:
        raise UserError(f"unsupported keyfile version {version}")
    if security_bits not in (128, 256) or len(blob) != head + security_bits // 8:
        raise UserError("corrupt keyfile")
    if not 1 <= domain_bits <= 64:
        raise UserError(f"keyfile domain bits {domain_bits} out of range")
    return SecretKey(blob[head:]), Domain.from_bits(domain_bits)


# ---------------------------------------------------------------------------
# session plumbing
# ---------------------------------------------------------------------------


def _parse_addr(addr: str) -> tuple[str, int]:
    """``host:port``, ``host`` or ``:port``; the host defaults to 127.0.0.1
    and the port to DEFAULT_PORT."""
    host, sep, port = addr.rpartition(":")
    if not sep:
        return addr or "127.0.0.1", DEFAULT_PORT
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise UserError(f"bad address {addr!r}") from exc


@contextlib.contextmanager
def _store_lock(path: str):
    """Exclusive flock on ``<store>.lock``, held until the block exits.  The
    store file itself cannot carry the lock: save renames a new file over it."""
    fd = os.open(path + ".lock", os.O_WRONLY | os.O_CREAT, 0o600)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


@contextlib.contextmanager
def open_session(args, writable: bool = False):
    """Session against --addr, or embedded against the --store file.

    Embedded writable sessions hold the store's lock file from before the
    load until after they save the store back on clean exit, so concurrent
    writers run one after the other; remote ones ask the server to persist
    instead.
    """
    if args.addr:
        host, port = _parse_addr(args.addr)
        with TcpSession(host, port) as session:
            yield session
            if writable:
                session.save()
    else:
        if not args.store:
            raise UserError("--store is required without --addr")
        if not os.path.exists(args.store):
            raise UserError(f"store file {args.store} does not exist (run init first)")
        with _store_lock(args.store) if writable else contextlib.nullcontext():
            store = store_mod.load(args.store)
            yield LocalSession(store)
            if writable:
                store.save(args.store)


def _values_arg(raw: list[str]) -> list[int]:
    out = []
    for chunk in raw:
        for part in chunk.split(","):
            part = part.strip()
            if part:
                try:
                    out.append(int(part))
                except ValueError as exc:
                    raise UserError(f"not an integer: {part!r}") from exc
    if not out:
        raise UserError("no values given")
    return out


def _csv_ints(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise UserError(f"bad number list {raw!r}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_init(args) -> int:
    if not 1 <= args.domain_bits <= 64:  # the widths read_keyfile accepts
        raise UserError(f"--domain-bits must be in [1, 64], got {args.domain_bits}")
    if os.path.exists(args.store):
        raise UserError(f"refusing to overwrite existing store {args.store}")
    key_path = args.key or default_key_path(args.store)
    if os.path.exists(key_path):
        raise UserError(f"refusing to overwrite existing keyfile {key_path}")
    if args.mode == "dense":
        store = DenseStore()
    else:
        store = DecoupledStore(index_bits=args.index_bits)
    key = keygen()
    write_keyfile(key_path, key, args.domain_bits)
    try:
        store.save(args.store)
    except BaseException:
        os.remove(key_path)  # a keyfile without its store would block a retry
        raise
    print(f"initialized {args.mode} store {args.store} length 0 keyfile {key_path}")
    return 0


def cmd_insert(args) -> int:
    values = _values_arg(args.values)
    key, dom = read_keyfile(args.key or default_key_path(args.store))
    coins = CoinSource(args.seed)
    with open_session(args, writable=True) as session:
        for v in values:
            n = insert(key, session, v, dom, coins=coins)
        print(f"length {n}")
    return 0


def cmd_query(args) -> int:
    key, dom = read_keyfile(args.key or default_key_path(args.store))
    with open_session(args) as session:
        result = search_range(key, session, RangeQuery(args.a, args.b), dom)
        pairs = read_values(key, session, result, dom)
    for lo, hi in result.segments:
        print(f"segment {lo} {hi}")
    for j, value in pairs:
        print(f"value {j} {value}")
    print(f"count {len(pairs)}")
    return 0


def cmd_topk(args) -> int:
    key, dom = read_keyfile(args.key or default_key_path(args.store))
    with open_session(args) as session:
        values = top_k(key, session, args.k, dom)
    for v in values:
        print(f"value {v}")
    print(f"count {len(values)}")
    return 0


def cmd_serve(args) -> int:
    if not os.path.exists(args.store):
        raise UserError(f"store file {args.store} does not exist (run init first)")
    store = store_mod.load(args.store)
    host, port = _parse_addr(args.addr or "")
    server = serve(store, host=host, port=port, save_path=args.store)
    host, port = server.server_address
    print(f"serving {args.store} on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def cmd_rebalance(args) -> int:
    if args.batch < 0:
        raise UserError(f"--batch must not be negative, got {args.batch}")
    with open_session(args, writable=True) as session:
        steps = 0
        while True:
            steps += 1
            if session.rebalance(args.batch):
                break
        print(f"rebalanced in {steps} hint(s)")
    return 0


def cmd_bench(args) -> int:
    cfg = BenchConfig(
        db_sizes=_csv_ints(args.db_sizes),
        range_sizes=_csv_ints(args.range_sizes),
        k_values=_csv_ints(args.k_values),
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed,
    )
    report = run_bench(cfg)
    print(report.table())
    if args.out:
        report.write_csv(args.out)
    return 0


def cmd_attack(args) -> int:
    report = run_attack(args.target, args.attack, args.n, args.domain_size, args.distribution, args.seed)
    print(report.line())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("attack,target,n,N,accuracy,baseline\n")
            acc = "" if report.accuracy is None else f"{report.accuracy:.6f}"
            fh.write(
                f"{report.attack},{report.target},{report.n},{report.domain_size},"
                f"{acc},{report.baseline:.6f}\n"
            )
    return 0


def cmd_game(args) -> int:
    cfg = GameConfig(trials=args.trials, adversary=args.adversary, target=args.target, seed=args.seed)
    result = run_game(cfg)
    print(
        f"adversary {cfg.adversary} target {cfg.target} trials {result.trials} "
        f"success_rate {result.success_rate:.6f} baseline {result.baseline:.6f} "
        f"advantage {result.advantage:.6f} sigma {result.sigma:.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are user errors, not exit 2
        raise UserError(message)


#: options that several commands take; each command declares only those it reads
_SHARED = {
    "--addr": dict(help="server address: host:port, host or :port"),
    "--store": dict(required=True, help="store file"),
    "--key": dict(help="keyfile (default: <store>.key)"),
    "--seed": dict(type=int, help="seed for the random choices (default: unseeded)"),
    "--out": dict(help="write a machine-readable report here"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eseds", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        p = sub.add_parser(name, help=help)
        for option in shared:
            p.add_argument(option, **_SHARED[option])
        p.set_defaults(func=func)
        return p

    p = command("init", cmd_init, "create an empty store and its keyfile", "--store", "--key")
    p.add_argument("--mode", choices=("dense", "decoupled"), default="dense")
    p.add_argument("--domain-bits", type=int, default=32, help="plaintext domain width in bits")
    p.add_argument("--index-bits", type=int, default=256, help="sparse index width (decoupled)")

    p = command("insert", cmd_insert, "insert plaintext values", "--addr", "--store", "--key", "--seed")
    p.add_argument("values", nargs="+", help="values, space or comma separated")

    p = command("query", cmd_query, "range query: indices and values in [a, b]", "--addr", "--store", "--key")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = command("topk", cmd_topk, "k smallest values", "--addr", "--store", "--key")
    p.add_argument("k", type=int)

    command("serve", cmd_serve, "serve a store file over TCP", "--addr", "--store")

    p = command("rebalance", cmd_rebalance, "run a full background rebalance pass", "--addr")
    p.add_argument("--store", help="store file (required without --addr)")
    p.add_argument("--batch", type=int, default=0, help="entries per hint (0 = whole pass)")

    p = command("bench", cmd_bench, "synthetic benchmarks on an embedded store", "--seed", "--out")
    p.add_argument("--db-sizes", default="10000")
    p.add_argument("--range-sizes", default="10")
    p.add_argument("--k-values", default="10")
    p.add_argument("--repeats", type=int, default=30)
    p.add_argument("--warmup", type=int, default=10)

    p = command("attack", cmd_attack, "build a target and attack it", "--seed", "--out")
    p.add_argument("--target", choices=TARGETS, required=True)
    p.add_argument("--attack", choices=ATTACKS, required=True)
    p.add_argument("--n", type=int, default=256, help="multiset size")
    p.add_argument("--domain-size", type=int, default=64, help="plaintext domain size N")
    p.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform")

    p = command("game", cmd_game, "empirical distinguishing experiment", "--seed")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--adversary", choices=sorted(ADVERSARIES), required=True)
    p.add_argument("--target", choices=TARGETS, required=True)

    return parser


_CATEGORIES = (
    (UserError, "usage"),
    (GameError, "game"),
    (AttackError, "attack"),
    (ServerError, "server"),
    (TransportError, "transport"),
    (ProtocolError, "protocol"),
    (CipherError, "crypto"),
    (StoreError, "store"),
    (ValueError, "usage"),
    (OSError, "io"),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UserError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except Exception as exc:
        for cls, category in _CATEGORIES:
            if isinstance(exc, cls):
                print(f"error: {category}: {exc}", file=sys.stderr)
                return 1
        print(f"error: internal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
