"""End-to-end command line runs, in-process via main()."""

import argparse
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import eseds
from eseds import store as store_mod
from eseds.attacks import ATTACKS, AttackError
from eseds.cli import UserError, _parse_addr, build_parser, main, open_session, read_keyfile
from eseds.cli.attack import run_attack
from eseds.core import CoinSource, insert
from eseds.store import DenseStore
from eseds.transforms import TARGETS
from eseds.transport import DEFAULT_PORT, serve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "demo.store")


def init(capsys, store, *extra):
    code, out, err = run(capsys, "init", "--store", store, *extra)
    assert code == 0, err
    return out


def _loaded_after(imports, watched):
    # a fresh interpreter, so modules this test run imported do not count
    src = str(Path(eseds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"import {imports}, sys; print(sorted({{m.split('.')[0] for m in sys.modules}} & {watched!r}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_importing_the_cli_loads_no_lab_dependencies():
    # every command pays for what the CLI imports at load; numpy and scipy
    # serve only the attack and bench commands
    assert _loaded_after("eseds.cli", {"numpy", "scipy"}) == "[]"


def test_importing_eseds_loads_no_second_openssl():
    # hashlib, hmac and secrets load the system libcrypto through _hashlib,
    # about 4 MB beside the OpenSSL that cryptography bundles
    imports = "eseds, eseds.store, eseds.transport, eseds.cli"
    assert _loaded_after(imports, {"_hashlib", "hashlib", "hmac", "secrets"}) == "[]"


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def test_init_creates_store_and_keyfile(capsys, store):
    out = init(capsys, store)
    assert f"initialized dense store {store} length 0" in out
    assert os.path.exists(store)
    assert os.path.exists(store + ".key")
    mode = os.stat(store + ".key").st_mode & 0o777
    assert mode == 0o600


def test_init_refuses_to_overwrite(capsys, store):
    init(capsys, store)
    code, _, err = run(capsys, "init", "--store", store)
    assert code == 1
    assert err.startswith("error: usage:")
    assert "refusing" in err


@pytest.mark.parametrize("bits", ["0", "65", "100", "70000"])
def test_init_refuses_a_domain_width_no_command_reads(capsys, tmp_path, bits):
    # every other command refuses a keyfile whose domain is outside [1, 64]
    code, _, err = run(capsys, "init", "--store", str(tmp_path / "s.db"), "--domain-bits", bits)
    assert code == 1
    assert err.startswith("error: usage:") and "--domain-bits" in err
    assert os.listdir(tmp_path) == []


def test_init_removes_its_keyfile_when_the_store_cannot_be_saved(capsys, tmp_path):
    key = str(tmp_path / "k.key")
    code, _, _ = run(capsys, "init", "--store", str(tmp_path / "nodir" / "s.db"), "--key", key)
    assert code == 1
    assert os.listdir(tmp_path) == []
    (tmp_path / "nodir").mkdir()
    init(capsys, str(tmp_path / "nodir" / "s.db"), "--key", key)  # so a retry succeeds


def test_insert_query_topk(capsys, store):
    init(capsys, store)
    code, out, _ = run(capsys, "insert", "--store", store, "--seed", "3", "1,3,3,7")
    assert code == 0
    assert "length 4" in out

    code, out, _ = run(capsys, "query", "--store", store, "3", "3")
    assert code == 0
    lines = out.strip().splitlines()
    values = sorted(int(l.split()[2]) for l in lines if l.startswith("value"))
    assert values == [3, 3]
    assert "count 2" in out
    segments = [l for l in lines if l.startswith("segment")]
    assert 1 <= len(segments) <= 2  # contiguous or wrapped around the end

    code, out, _ = run(capsys, "topk", "--store", store, "2")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("value")] == ["value 1", "value 3"]


def test_query_values_separated_by_spaces(capsys, store):
    init(capsys, store)
    run(capsys, "insert", "--store", store, "--seed", "1", "5", "2", "9")
    code, out, _ = run(capsys, "query", "--store", store, "0", "10")
    assert code == 0
    assert "count 3" in out


def test_wrapped_query(capsys, store):
    init(capsys, store, "--domain-bits", "4")
    run(capsys, "insert", "--store", store, "--seed", "1", "0,5,14")
    code, out, _ = run(capsys, "query", "--store", store, "13", "1")  # wraps mod 16
    assert code == 0
    values = sorted(int(l.split()[2]) for l in out.splitlines() if l.startswith("value"))
    assert values == [0, 14]


def test_decoupled_lifecycle_with_rebalance(capsys, store):
    init(capsys, store, "--mode", "decoupled", "--index-bits", "16")
    code, out, _ = run(capsys, "insert", "--store", store, "--seed", "2", "8,1,5")
    assert code == 0 and "length 3" in out
    code, out, _ = run(capsys, "rebalance", "--store", store, "--batch", "1")
    assert code == 0
    assert "rebalanced in" in out
    code, out, _ = run(capsys, "query", "--store", store, "1", "8")
    assert code == 0 and "count 3" in out


def test_rebalance_over_addr_needs_no_store(capsys, store):
    init(capsys, store, "--mode", "decoupled", "--index-bits", "16")
    run(capsys, "insert", "--store", store, "--seed", "2", "8,1,5")
    server = serve(store_mod.load(store), port=0, save_path=store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        code, out, err = run(capsys, "rebalance", "--addr", f"{host}:{port}", "--batch", "1")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert code == 0, err
    assert "rebalanced in" in out
    code, _, err = run(capsys, "rebalance", "--batch", "1")  # embedded: the file is needed
    assert code == 1
    assert err.startswith("error: usage:") and "--store" in err


@pytest.mark.parametrize("batch, category", [("-1", "usage"), (str(1 << 64), "transport")])
def test_rebalance_refuses_a_batch_outside_the_u64_range(capsys, store, batch, category):
    init(capsys, store, "--mode", "decoupled", "--index-bits", "16")
    run(capsys, "insert", "--store", store, "--seed", "2", "8,1,5")
    before = Path(store).read_bytes()
    code, _, err = run(capsys, "rebalance", "--store", store, "--batch", batch)
    assert code == 1, err
    assert err.startswith(f"error: {category}:"), err
    assert Path(store).read_bytes() == before


def test_persistence_across_invocations(capsys, store):
    init(capsys, store)
    run(capsys, "insert", "--store", store, "--seed", "1", "42")
    run(capsys, "insert", "--store", store, "--seed", "2", "7")
    code, out, _ = run(capsys, "topk", "--store", store, "2")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("value")] == ["value 7", "value 42"]


def test_concurrent_writable_sessions_do_not_lose_updates(capsys, store, monkeypatch):
    init(capsys, store)
    key, dom = read_keyfile(store + ".key")
    args = argparse.Namespace(addr=None, store=store)
    events = []
    load, save = store_mod.load, DenseStore.save
    monkeypatch.setattr(store_mod, "load", lambda path: events.append("load") or load(path))
    monkeypatch.setattr(DenseStore, "save", lambda self, sink: (save(self, sink), events.append("save"))[0])
    first_inside, release = threading.Event(), threading.Event()

    def writer(value, inside):
        with open_session(args, writable=True) as session:
            insert(key, session, value, dom, coins=CoinSource(value))
            inside.set()
            release.wait(10)

    first = threading.Thread(target=writer, args=(5, first_inside))
    second = threading.Thread(target=writer, args=(9, threading.Event()))
    first.start()
    first_inside.wait(10)
    second.start()
    time.sleep(0.2)  # room for the second session to load, were it not blocked
    assert events == ["load"]
    release.set()
    first.join(10)
    second.join(10)
    assert events == ["load", "save", "load", "save"]
    code, out, _ = run(capsys, "topk", "--store", store, "2")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("value")] == ["value 5", "value 9"]


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_missing_store_is_user_error(capsys, tmp_path):
    code, _, err = run(capsys, "query", "--store", str(tmp_path / "nope.store"), "0", "1")
    assert code == 1
    assert err.startswith("error:")


def test_corrupt_keyfile_is_user_error(capsys, store):
    init(capsys, store)
    with open(store + ".key", "wb") as fh:
        fh.write(b"NOTAKEY")
    code, _, err = run(capsys, "query", "--store", store, "0", "1")
    assert code == 1
    assert err.startswith("error:")


def test_out_of_domain_insert(capsys, store):
    init(capsys, store, "--domain-bits", "4")
    code, _, err = run(capsys, "insert", "--store", store, "99")
    assert code == 1
    assert "error: protocol:" in err


def test_rebalance_on_dense_store_reports_wrong_mode(capsys, store):
    init(capsys, store)
    code, _, err = run(capsys, "rebalance", "--store", store)
    assert code == 1
    assert "error: server:" in err


def test_game_rejects_tiny_trials(capsys):
    code, _, err = run(
        capsys, "game", "--trials", "50", "--adversary", "position_guesser", "--target", "fhope"
    )
    assert code == 1
    assert "error: game:" in err


@pytest.mark.parametrize(
    "addr, want",
    [
        ("example.org:9000", ("example.org", 9000)),
        ("example.org", ("example.org", DEFAULT_PORT)),
        (":9000", ("127.0.0.1", 9000)),
        ("example.org:http", UserError),
    ],
)
def test_parse_addr(addr, want):
    assert DEFAULT_PORT == 7487
    if want is UserError:
        with pytest.raises(UserError):
            _parse_addr(addr)
    else:
        assert _parse_addr(addr) == want


#: each command with arguments it accepts, then the shared options it does
#: not read; --embedded is refused everywhere
REFUSED = {
    "init": ([], ["--addr", "--seed", "--out"]),
    "insert": (["1"], ["--out"]),
    "query": (["0", "1"], ["--seed", "--out"]),
    "topk": (["1"], ["--seed", "--out"]),
    # a port out of range makes serve exit at once instead of serving, were the option accepted
    "serve": (["--addr", "127.0.0.1:70000"], ["--seed", "--out"]),
    "rebalance": ([], ["--seed", "--out"]),
    "bench": (
        ["--db-sizes", "8", "--range-sizes", "2", "--k-values", "2", "--repeats", "1", "--warmup", "0"],
        ["--addr"],
    ),
    "attack": (["--target", "fhope", "--attack", "sorting", "--n", "16", "--domain-size", "8"], ["--addr"]),
    "game": (["--trials", "150", "--adversary", "position_guesser", "--target", "fhope"], ["--addr", "--out"]),
}
DATA_COMMANDS = ("insert", "query", "topk", "serve", "rebalance")


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c, (_, options) in REFUSED.items() for o in ["--embedded", *options]],
)
def test_commands_refuse_options_they_do_not_read(capsys, tmp_path, command, option):
    path = str(tmp_path / "s.db")
    argv = [command, *REFUSED[command][0]]
    if command in DATA_COMMANDS:
        init(capsys, path, "--mode", "decoupled")  # so that each would succeed, were the option read
    if command in ("init", *DATA_COMMANDS):
        argv += ["--store", path]
    argv += [option, *{"--addr": ["127.0.0.1:1"], "--seed": ["3"], "--out": [str(tmp_path / "out")]}.get(option, [])]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: usage:") and option in err
    if command == "init":
        assert not os.path.exists(path)


def test_unknown_command_is_user_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("error: usage:")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "eseds" in out


# ---------------------------------------------------------------------------
# lab commands
# ---------------------------------------------------------------------------


def test_attack_command_reports_accuracy(capsys):
    code, out, _ = run(
        capsys,
        "attack", "--target", "fhope", "--attack", "bucketing",
        "--n", "64", "--domain-size", "16", "--seed", "5",
    )
    assert code == 0
    assert out.startswith("attack bucketing target fhope n 64 N 16 accuracy 1.000000")


def test_attack_inapplicable_is_not_an_error(capsys):
    code, out, _ = run(
        capsys,
        "attack", "--target", "fhope", "--attack", "sorting",
        "--n", "64", "--domain-size", "16", "--seed", "5",
    )
    assert code == 0
    assert "inapplicable" in out


def test_attack_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys,
        "attack", "--target", "det", "--attack", "frequency",
        "--n", "32", "--domain-size", "8", "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "attack,target,n,N,accuracy,baseline"
    assert lines[1].startswith("frequency,det,32,8,")


@pytest.mark.parametrize(
    "target, attack", [("fhope", "sorting"), ("fhope", "bucketing"), ("det", "frequency")]
)
def test_attack_csv_row_holds_the_printed_accuracy(capsys, tmp_path, target, attack):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "attack", "--target", target, "--attack", attack,
        "--n", "64", "--domain-size", "16", "--seed", "5", "--out", str(out_path),
    )
    assert code == 0
    header, row = out_path.read_text().splitlines()
    assert header == "attack,target,n,N,accuracy,baseline"
    *fields, accuracy, baseline = row.split(",")
    assert fields == [attack, target, "64", "16"]
    words = out.split()
    if "inapplicable" in words:  # sorting on 64 positions over 16 values
        assert (attack, accuracy) == ("sorting", "")
    else:
        assert accuracy == words[words.index("accuracy") + 1]
        assert baseline == words[words.index("baseline") + 1]


def test_attack_seed_reproducible(capsys):
    args = (
        "attack", "--target", "main_eseds", "--attack", "bucketing",
        "--n", "50", "--domain-size", "16", "--seed", "9",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("option", ["--n", "--domain-size"])
def test_attack_refuses_a_size_below_one(capsys, option):
    code, out, err = run(capsys, "attack", "--target", "det", "--attack", "lp", option, "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: attack:") and option in err


def test_lab_commands_take_their_targets_from_the_transform_table():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name in ("attack", "game"):
        (target,) = [a for a in commands.choices[name]._actions if a.dest == "target"]
        assert tuple(target.choices) == TARGETS


def test_attack_command_takes_its_attacks_from_the_attack_table():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (attack,) = [a for a in commands.choices["attack"]._actions if a.dest == "attack"]
    assert list(attack.choices) == list(ATTACKS)


def test_attack_errors_other_than_inapplicable_exit_1(capsys, monkeypatch):
    def row(labels, known, domain_size):
        raise AttackError("integer cost over float64's exact range")

    monkeypatch.setitem(ATTACKS, "lp", row)
    code, out, err = run(capsys, "attack", "--target", "det", "--attack", "lp", "--n", "8", "--domain-size", "4")
    assert (code, out) == (1, "")
    assert err == "error: attack: integer cost over float64's exact range\n"


def test_attack_counts_the_multiset_in_linear_time():
    # the ope builder and the baseline count every distinct value; counting
    # each with list.count took about half a minute on 30 000 mostly distinct values
    t0 = time.perf_counter()
    report = run_attack("ope", "frequency", 30_000, 10**7, "uniform", 1)
    elapsed = time.perf_counter() - t0
    assert report.accuracy == 1.0
    assert elapsed < 5, f"{elapsed:.1f} s"


def test_game_command_line_format(capsys):
    code, out, _ = run(
        capsys,
        "game", "--trials", "150", "--adversary", "position_guesser",
        "--target", "fhope", "--seed", "3",
    )
    assert code == 0
    assert out.startswith("adversary position_guesser target fhope trials 150 ")
    assert "success_rate 1.000000" in out
    assert "advantage 0.500000" in out


def test_bench_tiny_run_with_csv(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    code, out, _ = run(
        capsys,
        "bench", "--db-sizes", "64,128", "--range-sizes", "4", "--k-values", "4",
        "--repeats", "3", "--warmup", "1", "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert "search" in out and "topk" in out
    header = out_path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["kind", "n", "param"]


def test_bench_rejects_bad_warmup(capsys):
    code, _, err = run(capsys, "bench", "--repeats", "2", "--warmup", "5")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("db_sizes, range_size", [("2", "16"), ("2,100", "16"), ("100,2", "17")])
def test_bench_refuses_a_range_size_at_or_above_the_domain(capsys, db_sizes, range_size):
    # a db size of n draws its values from a domain of max(8n, 16)
    code, out, err = run(
        capsys, "bench", "--db-sizes", db_sizes, "--range-sizes", range_size, "--repeats", "2", "--warmup", "0"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: usage:") and "--range-sizes" in err


def test_bench_takes_a_range_size_just_below_the_domain(capsys):
    code, out, _ = run(
        capsys, "bench", "--db-sizes", "2", "--range-sizes", "15", "--k-values", "2",
        "--repeats", "2", "--warmup", "0", "--seed", "1",
    )
    assert code == 0
    assert out.splitlines()[1].split()[:3] == ["search", "2", "15"]
