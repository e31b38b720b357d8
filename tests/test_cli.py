import csv
import io
import itertools
import json
import struct
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from netpad import keystore_io
from netpad.cli import main
from netpad.multipath import Topology
from netpad.secure_check import RateProfile

from helpers import reseal


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_capacity_command():
    res = run("capacity", "--n", "4", "--t", "1")
    assert res.exit_code == 0
    assert "1/3" in res.output
    assert run("capacity", "--n", "4", "--t", "5").exit_code != 0


@pytest.mark.parametrize("t,channel", [(1, "~0.25"), (1000, "~0.0003677")])
def test_capacity_of_a_huge_network_returns_at_once(t, channel):
    # The capacity comes from a closed form at the maximizing group size,
    # O(t) multiplications; a sweep over every group size would not end.
    start = time.perf_counter()
    res = run("capacity", "--n", "100000000000", "--t", str(t))
    assert time.perf_counter() - start < 1
    assert res.exit_code == 0, res.output
    assert "channel capacity: " in res.output and channel in res.output


def test_rates_command_and_sweep():
    res = run("rates", "--scheme", "comb:a=3", "--n", "4", "--t", "1")
    assert res.exit_code == 0 and "1/3" in res.output
    sweep = run("rates", "--scheme", "pairwise", "--n", "5", "--t", "1", "--sweep-a")
    assert sweep.exit_code == 0
    assert sweep.output.count("\n") >= 5


def test_keygen_and_check_exit_codes(tmp_path):
    store = tmp_path / "s.npks"
    res = run("keygen", "--scheme", "comb:a=3", "--n", "4", "--l", "1260",
              "--seed", "7", "--out", str(store))
    assert res.exit_code == 0 and store.exists()

    ok = run("check", "--store", str(store), "--t", "1",
             "--profile", "uniform:1/18")
    assert ok.exit_code == 0
    assert json.loads(ok.output)["status"] == "achievable"

    bad = run("check", "--store", str(store), "--t", "1",
              "--profile", "uniform:1/9")
    assert bad.exit_code == 1
    doc = json.loads(bad.output)
    assert doc["witness"]["hacked"] == [4]

    undecided = run("check", "--store", str(store), "--t", "1",
                    "--profile", "uniform:1/9", "--method", "feasibility")
    assert undecided.exit_code == 2

    missing = run("check", "--store", str(store), "--t", "1",
                  "--profile", str(tmp_path / "nope.json"))
    assert missing.exit_code == 3

    # Without --store or --l, the generated store has l = 1260.
    generated = run("check", "--scheme", "comb:a=3", "--n", "4", "--seed", "7", "--t", "1",
                    "--profile", "uniform:1/18")
    assert generated.exit_code == 0 and json.loads(generated.output)["config"]["l"] == 1260


def test_check_with_profile_file(tmp_path):
    store = tmp_path / "s.npks"
    run("keygen", "--scheme", "pairwise", "--n", "4", "--l", "300",
        "--out", str(store))
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({
        "n": 4, "rates": [{"i": 1, "j": 2, "r": "1/10"}]
    }))
    res = run("check", "--store", str(store), "--t", "0",
              "--profile", str(profile), "--out", str(tmp_path / "verdict.json"))
    assert res.exit_code == 0
    assert json.loads((tmp_path / "verdict.json").read_text())["status"] == "achievable"


def test_check_exact_at_n8_t2():
    res = run("check", "--scheme", "comb:a=3", "--n", "8", "--l", "1260",
              "--t", "2", "--profile", "uniform:1/100", "--seed", "1")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["status"] == "achievable"


def test_encrypt_decrypt_file_roundtrip(tmp_path):
    for node in (1, 2):
        run("keygen", "--scheme", "comb:a=3", "--n", "4", "--l", "1260",
            "--seed", "3", "--node", str(node),
            "--out", str(tmp_path / f"n{node}.npks"))
    payload = bytes(range(37))
    (tmp_path / "msg.bin").write_bytes(payload)
    enc = run("encrypt", "--keystore", str(tmp_path / "n1.npks"), "--peer", "2",
              "--in", str(tmp_path / "msg.bin"), "--out", str(tmp_path / "msg.npct"),
              "--seed", "5")
    assert enc.exit_code == 0
    dec = run("decrypt", "--keystore", str(tmp_path / "n2.npks"),
              "--in", str(tmp_path / "msg.npct"), "--out", str(tmp_path / "msg.out"))
    assert dec.exit_code == 0
    assert (tmp_path / "msg.out").read_bytes() == payload

    raw = (tmp_path / "msg.npct").read_bytes()
    version_1 = raw[:4] + struct.pack("<H", 1) + raw[6:]
    for bad in (raw + b"garbage", raw[:30], b"NPCT", version_1):
        (tmp_path / "bad.npct").write_bytes(bad)
        res = run("decrypt", "--keystore", str(tmp_path / "n2.npks"),
                  "--in", str(tmp_path / "bad.npct"), "--out", str(tmp_path / "bad.out"))
        assert res.exit_code == 3, res.output

    # A node view claiming a 2^40-bit group is a format error, not a
    # MemoryError: the bit counts follow node 2's last node set (2, 3, 4),
    # and the first is the 420 bits of (1, 2, 3).
    view = bytearray((tmp_path / "n2.npks").read_bytes())
    at = view.index(struct.pack("<3IQ", 2, 3, 4, 420)) + 12
    view[at:at + 8] = struct.pack("<Q", 2**40)
    (tmp_path / "huge.npks").write_bytes(reseal(bytes(view)))
    res = run("decrypt", "--keystore", str(tmp_path / "huge.npks"),
              "--in", str(tmp_path / "msg.npct"), "--out", str(tmp_path / "bad.out"))
    assert res.exit_code == 3, res.output
    assert "overruns" in res.output
    assert not (tmp_path / "bad.out").exists()


def test_encrypt_rejects_zero_weight(tmp_path):
    # With d = 0 every key bit is an empty XOR: the body would be the plaintext.
    run("keygen", "--scheme", "comb:a=3", "--n", "4", "--l", "1260",
        "--seed", "3", "--node", "1", "--out", str(tmp_path / "n1.npks"))
    (tmp_path / "msg.bin").write_bytes(b"attack at dawn")
    res = run("encrypt", "--keystore", str(tmp_path / "n1.npks"), "--peer", "2",
              "--in", str(tmp_path / "msg.bin"), "--out", str(tmp_path / "msg.npct"),
              "--d", "0", "--seed", "5")
    assert res.exit_code != 0
    assert "Invalid value for '--d'" in res.output
    assert not (tmp_path / "msg.npct").exists()


def test_encrypt_is_replayable_with_same_seed(tmp_path):
    run("keygen", "--scheme", "pairwise", "--n", "3", "--l", "600",
        "--seed", "1", "--node", "1", "--out", str(tmp_path / "n1.npks"))
    (tmp_path / "m.bin").write_bytes(b"hello world")
    for name in ("a.npct", "b.npct"):
        res = run("encrypt", "--keystore", str(tmp_path / "n1.npks"), "--peer", "2",
                  "--in", str(tmp_path / "m.bin"), "--out", str(tmp_path / name),
                  "--seed", "44")
        assert res.exit_code == 0
    assert (tmp_path / "a.npct").read_bytes() == (tmp_path / "b.npct").read_bytes()


def test_simulate_command():
    res = run("simulate", "--scheme", "comb:a=3", "--n", "4", "--l", "600",
              "--t", "1", "--profile", "uniform:1/18", "--d", "32", "--seed", "2")
    assert res.exit_code == 0
    assert "FULL RANK" in res.output


def test_simulate_with_no_messages_certifies_nothing():
    res = run("simulate", "--scheme", "comb:a=3", "--n", "4", "--l", "120",
              "--t", "1", "--profile", "uniform:0", "--d", "8", "--seed", "2")
    assert res.exit_code == 0, res.output
    assert "messages=0" in res.output
    assert res.output.splitlines()[-1] == "no messages: nothing to certify"
    assert "FULL RANK" not in res.output


def test_experiment_csv_output(tmp_path):
    res = run("experiment", "lemma-rank", "--r", "200", "--ratio", "0.5",
              "--mode", "fixed:16", "--trials", "5", "--seed", "1")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["experiment", "params", "trials", "successes", "p_hat",
                       "ci_low", "ci_high", "seed"]
    assert rows[1][0] == "lemma_rank_fixed_weight"
    out = tmp_path / "r.csv"
    res = run("experiment", "lemma-rank", "--r", "100", "--ratio", "1.5",
              "--trials", "4", "--seed", "1", "--out", str(out))
    assert res.exit_code == 0
    assert "0.000000" in out.read_text()


# Outputs at pinned seeds.  They stay byte-identical however the path
# from a rate profile to its key rows is arranged.
SIMULATE_GOLDEN = [
    ("--scheme comb:a=3 --n 5 --l 600 --t 1 --profile uniform:1/30 --d 32 --seed 7", 0,
     "scheme=comb:a=3 n=5 t=1 l=600 d=32 seed=7 rng=numpy-pcg64\n"
     "messages=6 key_rows=120 unhacked_cols=400 rank=120\n"
     "witness: FULL RANK — perfect secrecy certified for this transcript\n"),
    ("--scheme random:p=1/2 --n 5 --l 300 --t 1 --profile uniform:1/40 --d 16 --seed 3", 0,
     "scheme=random:p=1/2 n=5 t=1 l=300 d=16 seed=3 rng=numpy-pcg64\n"
     "messages=6 key_rows=42 unhacked_cols=300 rank=42\n"
     "witness: FULL RANK — perfect secrecy certified for this transcript\n"),
    ("--scheme comb:a=3 --n 4 --l 120 --t 1 --d 8 --seed 2 --profile uniform:1/3", 1,
     "scheme=comb:a=3 n=4 t=1 l=120 d=8 seed=2 rng=numpy-pcg64\n"
     "messages=3 key_rows=120 unhacked_cols=40 rank=40\n"
     "witness: RANK DEFICIENT — transcript is NOT perfectly secret\n"),
]


@pytest.mark.parametrize("options,code,stdout", SIMULATE_GOLDEN,
                         ids=["comb", "random", "deficient"])
def test_simulate_output_is_frozen(options, code, stdout):
    res = run("simulate", *options.split())
    assert res.exit_code == code, res.output
    assert res.output == stdout


LEMMA_RANK_GOLDEN = [
    ("--r 300 --ratio 0.9 --trials 20 --seed 4",
     'lemma_rank_bernoulli,"{""k"": 270, ""mode"": [""bernoulli"", 1.0], ""r"": 300}",'
     "20,7,0.350000,0.181190,0.567149,4\r\n"),
    ("--r 200 --mode fixed:16 --trials 10 --seed 5",
     'lemma_rank_fixed_weight,"{""k"": 180, ""mode"": [""fixed_weight"", 16], ""r"": 200}",'
     "10,10,1.000000,0.722460,1.000000,5\r\n"),
]


@pytest.mark.parametrize("options,row", LEMMA_RANK_GOLDEN, ids=["bernoulli", "fixed"])
def test_lemma_rank_csv_is_frozen(options, row, tmp_path):
    out = tmp_path / "r.csv"
    res = run("experiment", "lemma-rank", *options.split(), "--out", str(out))
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (
        "experiment,params,trials,successes,p_hat,ci_low,ci_high,seed\r\n" + row).encode()


def test_multipath_command(tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "n": 5, "edges": [[1, 2], [2, 5], [1, 3], [3, 5], [1, 4], [4, 5]]
    }))
    res = run("multipath", "--topology", str(topo), "--s", "1", "--dst", "5",
              "--t", "2", "--message-bits", "8")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert len(doc["paths"]) == 3 and doc["total_cost"] == 48
    infeasible = run("multipath", "--topology", str(topo), "--s", "1",
                     "--dst", "5", "--t", "3")
    assert infeasible.exit_code != 0


def test_paper_tables_regression():
    res = run("paper-tables")
    assert res.exit_code == 0
    assert "FAIL" not in res.output


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPAD_SEED", "99")
    res = run("keygen", "--scheme", "pairwise", "--n", "3", "--l", "6",
              "--out", str(tmp_path / "s.npks"))
    assert res.exit_code == 0 and "seed=99" in res.output


@pytest.mark.parametrize("seed", ["-1", str(2**63), str(10**23)])
def test_seeds_outside_63_bits_are_refused(seed, files, monkeypatch):
    # -1 was masked to 2^63 - 1 and 10^23 folded to 200376420520689663, so
    # each wrote the same store as a seed in range.
    commands = [
        "keygen --scheme comb:a=3 --n 4 --l 12 --out {refused_out}",
        "check --scheme comb:a=3 --n 4 --l 12 --t 1 --profile uniform:1/18",
        "simulate --scheme comb:a=3 --n 4 --l 120 --t 1 --profile uniform:1/18",
        "experiment full-rank --trials 1",
        "encrypt --keystore {n1_npks} --peer 2 --in {msg_bin} --out {refused_out}",
    ]
    for command in commands:
        args = [arg.format(**files) for arg in command.split() + ["--seed", seed]]
        res = run(*args)
        assert res.exit_code == 3 and "Invalid value for '--seed'" in res.output, res.output
        monkeypatch.setenv("NETPAD_SEED", seed)
        res = run(*args[:-2])
        monkeypatch.delenv("NETPAD_SEED")
        assert res.exit_code == 3 and "NETPAD_SEED" in res.output, res.output
    assert not Path(files["refused_out"]).exists()


def test_the_largest_seed_no_longer_aliases_a_negative_one(tmp_path):
    res = run("keygen", "--scheme", "random:p=1/2", "--n", "3", "--l", "6",
              "--seed", str(2**63 - 1), "--out", str(tmp_path / "s.npks"))
    assert res.exit_code == 0 and f"seed={2**63 - 1}" in res.output
    assert keystore_io.load(tmp_path / "s.npks").seed == 2**63 - 1


@pytest.mark.parametrize("counter", ["-3", "0"])
def test_counter_outside_1_to_2_64_names_the_option(counter, files):
    res = run("encrypt", "--keystore", files["n1_npks"], "--peer", "2", "--in", files["msg_bin"],
              "--seed", "5", "--counter", counter, "--out", files["refused_out"])
    assert res.exit_code == 3 and "Invalid value for '--counter'" in res.output, res.output


def test_default_seed_is_fresh(tmp_path, monkeypatch):
    # A fixed default seed would make every default keystore public.
    monkeypatch.delenv("NETPAD_SEED", raising=False)
    pools = []
    for name in ("a.npks", "b.npks"):
        res = run("keygen", "--scheme", "pairwise", "--n", "3", "--l", "64",
                  "--out", str(tmp_path / name))
        assert res.exit_code == 0 and "seed=" in res.output
        pools.append(keystore_io.load(tmp_path / name).pool)
    assert pools[0] != pools[1]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files for the exit-code table, by name."""
    d = tmp_path_factory.mktemp("cli")
    paths = {name: d / name for name in (
        "full.npks", "n1.npks", "n2.npks", "msg.bin", "msg.npct", "topo.json",
        "profile.json", "null_rate.json", "list.json", "int_edges.json",
        "str_node.json", "repeated_pair.json", "one_node.json", "profile_key.json",
        "rate_key.json", "topo_key.json", "repeated_edge.json", "reversed_edge.json",
        "bad.npks", "missing", "refused.out")}
    run("keygen", "--scheme", "comb:a=3", "--n", "4", "--l", "1260", "--seed", "7",
        "--out", str(paths["full.npks"]))
    for node in (1, 2):
        run("keygen", "--scheme", "comb:a=3", "--n", "4", "--l", "1260", "--seed", "7",
            "--node", str(node), "--out", str(paths[f"n{node}.npks"]))
    paths["msg.bin"].write_bytes(b"attack at dawn")
    run("encrypt", "--keystore", str(paths["n1.npks"]), "--peer", "2", "--seed", "5",
        "--in", str(paths["msg.bin"]), "--out", str(paths["msg.npct"]))
    paths["bad.npks"].write_bytes(paths["full.npks"].read_bytes()[:40])
    for name, doc in {
        "topo.json": {"n": 5, "edges": [[1, 2], [2, 5], [1, 3], [3, 5], [1, 4], [4, 5]]},
        "profile.json": {"n": 4, "rates": [{"i": 1, "j": 2, "r": "1/10"}]},
        "null_rate.json": {"n": 4, "rates": [{"i": 1, "j": 2, "r": None}]},
        "list.json": [4],
        "int_edges.json": {"n": 5, "edges": [1, 2]},
        "str_node.json": {"n": 5, "edges": [[1, "x"]]},
        "repeated_pair.json": {"n": 4, "rates": [{"i": 1, "j": 2, "r": "1/9"},
                                                 {"i": 2, "j": 1, "r": "1/3"}]},
        "one_node.json": {"n": 1, "rates": []},
        "profile_key.json": {"n": 4, "rates": [{"i": 1, "j": 2, "r": "1/10"}], "t": 1},
        "rate_key.json": {"n": 4, "rates": [{"i": 1, "j": 2, "r": "1/10", "d": 8}]},
        "topo_key.json": {"n": 5, "edges": [[1, 2], [2, 5]], "directed": True},
        "repeated_edge.json": {"n": 5, "edges": [[1, 2], [2, 5], [1, 3], [3, 5], [1, 2]]},
        "reversed_edge.json": {"n": 5, "edges": [[1, 2], [2, 5], [1, 3], [3, 5], [2, 1]]},
    }.items():
        paths[name].write_text(json.dumps(doc))
    paths["no_dir"] = d / "no_dir" / "out"
    return {name.replace(".", "_"): str(path) for name, path in paths.items()}


STORE = "check --store {full_npks} --t 1 --profile"
ENCRYPT = "encrypt --keystore {n1_npks} --peer 2 --in {msg_bin} --seed 5 --out"
DECRYPT = "decrypt --keystore {n2_npks} --in {msg_npct} --out"
MULTIPATH = "multipath --topology {topo_json} --s 1 --dst 5"
CHECK_T = "check --scheme comb:a=3 --n 4 --l 1260 --seed 1 --t"
SIMULATE = "simulate --scheme comb:a=3 --n 4 --l 120 --t 1 --d 8 --seed 2 --profile"


@pytest.mark.parametrize("command,code", [
    # Verdicts.
    (f"{STORE} uniform:1/18", 0),
    (f"{STORE} uniform:1/9", 1),
    (f"{STORE} uniform:1/9 --method feasibility", 2),
    (f"{STORE} {{profile_json}}", 0),
    (f"{SIMULATE} uniform:1/18", 0),
    (f"{SIMULATE} uniform:1/3", 1),  # 120 key rows on 40 unhacked bits
    (f"{MULTIPATH} --t 2", 0),
    (f"{MULTIPATH} --t 3", 1),  # three disjoint paths only
    ("--help", 0),
    ("check --help", 0),
    # Bad arguments.
    (f"check --store {{full_npks}} --t 5 --profile uniform:1/18", 3),
    ("capacity --n 4 --t 5", 3),
    ("capacity --n four --t 1", 3),
    (f"{STORE} uniform:1/0", 3),
    (f"{STORE} uniform:1/18 --method guess", 3),
    ("keygen --scheme comb:a=9 --n 4 --l 12 --out {no_dir}", 3),
    ("experiment lemma-rank --mode gauss --trials 1", 3),
    ("keygen --scheme sampled:a=3,m=18 --n 6 --l 90 --seed 1 --out {no_dir}", 3),
    (f"{ENCRYPT} {{missing}} --d 0", 3),
    ("check --t 1 --profile uniform:1/18", 3),  # neither --store nor --scheme
    ("frobnicate", 3),
    ("--bogus capacity", 3),
    ("", 3),  # prints the usage text
    # Missing options.
    ("check --store {full_npks} --profile uniform:1/18", 3),
    ("encrypt --keystore {n1_npks} --in {msg_bin} --out {missing}", 3),
    # Missing input files.
    ("check --store {missing} --t 1 --profile uniform:1/18", 3),
    (f"{STORE} {{missing}}", 3),
    ("encrypt --keystore {missing} --peer 2 --in {msg_bin} --out {no_dir}", 3),
    ("encrypt --keystore {n1_npks} --peer 2 --in {missing} --out {no_dir}", 3),
    ("decrypt --keystore {missing} --in {msg_npct} --out {no_dir}", 3),
    ("decrypt --keystore {n2_npks} --in {missing} --out {no_dir}", 3),
    ("multipath --topology {missing} --s 1 --dst 5 --t 1", 3),
    # Malformed inputs.
    (f"{STORE} {{null_rate_json}}", 3),
    (f"{STORE} {{list_json}}", 3),
    (f"{STORE} {{repeated_pair_json}}", 3),  # would read as r_12 = 1/3
    (f"{STORE} {{one_node_json}}", 3),
    ("multipath --topology {int_edges_json} --s 1 --dst 5 --t 1", 3),
    ("multipath --topology {str_node_json} --s 1 --dst 5 --t 1", 3),
    (f"{STORE} {{profile_key_json}}", 3),  # an unknown top-level key
    (f"{STORE} {{rate_key_json}}", 3),  # an unknown key in a rate entry
    ("multipath --topology {topo_key_json} --s 1 --dst 5 --t 1", 3),
    ("multipath --topology {repeated_edge_json} --s 1 --dst 5 --t 1", 3),
    ("multipath --topology {reversed_edge_json} --s 1 --dst 5 --t 1", 3),
    ("check --store {bad_npks} --t 1 --profile uniform:1/18", 3),
    ("decrypt --keystore {n2_npks} --in {msg_bin} --out {no_dir}", 3),
    ("encrypt --keystore {full_npks} --peer 2 --in {msg_bin} --out {no_dir}", 3),
    # Unwritable outputs.
    ("keygen --scheme pairwise --n 4 --l 12 --out {no_dir}", 3),
    (f"{STORE} uniform:1/18 --out {{no_dir}}", 3),
    (f"{ENCRYPT} {{no_dir}}", 3),
    (f"{DECRYPT} {{no_dir}}", 3),
    ("experiment lemma-rank --r 20 --trials 1 --out {no_dir}", 3),
    # Out-of-range values that would make a verdict vacuous or nonsensical.
    (f"{CHECK_T} -1 --profile uniform:1 --method feasibility", 3),  # no hacked set
    (f"{CHECK_T} 3 --profile uniform:1 --method relaxed", 3),  # no unhacked channel
    (f"{CHECK_T} 3 --profile uniform:1 --method feasibility", 3),
    ("simulate --scheme comb:a=3 --n 4 --l 120 --t -1 --d 8 --seed 2 "
     "--profile uniform:1/18", 3),
    ("experiment full-rank --trials 0", 3),
    ("experiment cross-independence --trials 0", 3),
    (f"{MULTIPATH} --t 1 --message-bits -8", 3),
    # Values past their file fields (u32 node ids, a u64 counter).
    ("keygen --scheme comb:a=3 --n 4 --l 12 --node -1 --out {refused_out}", 3),
    ("keygen --scheme comb:a=3 --n 4 --l 12 --node 4294967296 --out {refused_out}", 3),
    ("keygen --scheme comb:a=3 --n 4 --l 12 --node 0 --out {refused_out}", 3),
    # Stores past the NPKS widths (u <= 2^32, l < 2^32), refused before
    # generate allocates (see PEAK_MB).
    ("keygen --scheme random:p=1/1000000000000 --n 4 --l 6 --out {refused_out}", 3),
    ("keygen --scheme comb:a=2 --n 4 --l 4294967296 --out {refused_out}", 3),
    (f"{ENCRYPT} {{refused_out}} --counter 18446744073709551616", 3),
    # Counters start at 1; a negative one reached numpy's seeding.
    (f"{ENCRYPT} {{refused_out}} --counter -3", 3),
    (f"{ENCRYPT} {{refused_out}} --counter 0", 3),
    # Experiment sizes outside their declared ranges (see NAMED).
    ("experiment lemma-rank --ratio inf --trials 1", 3),
    ("experiment lemma-rank --r -5 --trials 1", 3),
    ("experiment lemma-rank --r 0 --trials 1", 3),
    ("experiment full-rank --d 0 --trials 2", 3),
    ("experiment lemma-rank --ratio nan --trials 1", 3),
    ("keygen --scheme comb:a=3 --n 4 --l 0 --out {refused_out}", 3),
    ("check --scheme comb:a=3 --n 4 --l 0 --t 1 --profile uniform:1/18", 3),
    ("simulate --scheme comb:a=3 --n 4 --l -5 --t 1 --profile uniform:1/18", 3),
    ("experiment full-rank --l 0 --trials 1", 3),
    (f"{MULTIPATH} --t 1 --message-bits 0", 3),
    # Lemma-rank densities outside (0, 1] and fixed weights outside 1..r.
    ("experiment lemma-rank --mode bernoulli:0 --trials 1", 3),
    ("experiment lemma-rank --mode bernoulli:-1 --trials 1", 3),
    ("experiment lemma-rank --mode bernoulli:nan --trials 1", 3),
    ("experiment lemma-rank --r 20 --mode fixed:0 --trials 1", 3),
    ("experiment lemma-rank --r 20 --mode fixed:21 --trials 1", 3),
    # A store file defines scheme, n and l; giving one of them too is refused.
    (f"{STORE} uniform:1/18 --scheme comb:a=3", 3),
    (f"{STORE} uniform:1/18 --n 5", 3),
    (f"{STORE} uniform:1/18 --l 1260", 3),
    ("simulate --store {full_npks} --n 4 --t 1 --profile uniform:1/18", 3),
])
def test_exit_codes(command, code, files):
    """0, 1 and 2 only as a command's verdict; every other failure exits
    3 with a message, never a traceback."""
    if command in PEAK_MB:
        tracemalloc.start()
    res = run(*(arg.format(**files) for arg in command.split()))
    if command in PEAK_MB:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < PEAK_MB[command] * 2**20, peak
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    if code == 3:
        assert "Error: " in res.output or "Usage: " in res.output
        assert not Path(files["refused_out"]).exists()
    if command in NAMED:
        assert NAMED[command] in res.output, res.output


# Rows of test_exit_codes whose message must name the offending option.
NAMED = {
    "experiment lemma-rank --ratio inf --trials 1": "'--ratio'",
    "experiment lemma-rank --r -5 --trials 1": "'--r'",
    "experiment lemma-rank --r 0 --trials 1": "'--r'",
    "experiment full-rank --d 0 --trials 2": "'--d'",
    "experiment lemma-rank --ratio nan --trials 1": "'--ratio'",
    "experiment lemma-rank --mode bernoulli:0 --trials 1": "for --mode:",
    "experiment lemma-rank --mode bernoulli:-1 --trials 1": "for --mode:",
    "experiment lemma-rank --mode bernoulli:nan --trials 1": "for --mode:",
    "experiment lemma-rank --r 20 --mode fixed:0 --trials 1": "for --mode:",
    "experiment lemma-rank --r 20 --mode fixed:21 --trials 1": "for --mode:",
    f"{STORE} uniform:1/18 --scheme comb:a=3": "drop --scheme",
    f"{STORE} uniform:1/18 --n 5": "drop --n",
    f"{STORE} uniform:1/18 --l 1260": "drop --l",
    "simulate --store {full_npks} --n 4 --t 1 --profile uniform:1/18": "drop --n",
    "keygen --scheme comb:a=3 --n 4 --l 12 --node -1 --out {refused_out}": "'--node'",
    "keygen --scheme comb:a=3 --n 4 --l 12 --node 4294967296 --out {refused_out}": "'--node'",
    "keygen --scheme comb:a=3 --n 4 --l 12 --node 0 --out {refused_out}": "'--node'",
    "keygen --scheme comb:a=3 --n 4 --l 0 --out {refused_out}": "'--l'",
    "check --scheme comb:a=3 --n 4 --l 0 --t 1 --profile uniform:1/18": "'--l'",
    "simulate --scheme comb:a=3 --n 4 --l -5 --t 1 --profile uniform:1/18": "'--l'",
    "experiment full-rank --l 0 --trials 1": "'--l'",
    f"{MULTIPATH} --t 1 --message-bits -8": "'--message-bits'",
    f"{MULTIPATH} --t 1 --message-bits 0": "'--message-bits'",
    "keygen --scheme random:p=1/1000000000000 --n 4 --l 6 --out {refused_out}":
        "NPKS holds n, l < 2^32 and u <= 2^32",
    "keygen --scheme comb:a=2 --n 4 --l 4294967296 --out {refused_out}":
        "NPKS holds n, l < 2^32 and u <= 2^32",
}

# Rows of test_exit_codes refused before they allocate: a tracemalloc peak
# in MB that they stay under.  Without the check, the first asks numpy for
# 21.8 TiB and the second for 64 GiB.
PEAK_MB = {
    "keygen --scheme random:p=1/1000000000000 --n 4 --l 6 --out {refused_out}": 4,
    "keygen --scheme comb:a=2 --n 4 --l 4294967296 --out {refused_out}": 4,
}


def test_encrypt_refuses_more_key_bits_than_the_channel_shares(files, tmp_path):
    # Channel (1, 2) of this store shares |u_12| = 840 bits, fewer than the
    # l = 1260 each node holds; 1000 key bits would not all be secret.
    out = tmp_path / "out.npct"

    def encrypt(n_bytes):
        msg = tmp_path / "msg.bin"
        msg.write_bytes(bytes(range(n_bytes)))
        return run("encrypt", "--keystore", files["n1_npks"], "--peer", "2",
                   "--in", str(msg), "--out", str(out))

    res = encrypt(125)
    assert res.exit_code == 3, res.output
    assert "would consume 1000 of its |u_ij|=840" in res.output
    assert not out.exists()
    assert encrypt(105).exit_code == 0 and out.exists()  # exactly 840 bits


def test_cli_round_trip_never_builds_view_groups(tmp_path, monkeypatch):
    # The key path selects u_ij by a group mask, so neither endpoint should
    # build the groups dict of its view.
    loaded = []

    def load_node_view(path):
        loaded.append(real_load(path))
        return loaded[-1]
    real_load = keystore_io.load_node_view
    monkeypatch.setattr(keystore_io, "load_node_view", load_node_view)
    for node in (1, 3):
        run("keygen", "--scheme", "comb:a=3", "--n", "4", "--l", "1260", "--seed", "3",
            "--node", str(node), "--out", str(tmp_path / f"n{node}.npks"))
    (tmp_path / "msg.bin").write_bytes(bytes(range(80)))
    enc = run("encrypt", "--keystore", str(tmp_path / "n1.npks"), "--peer", "3",
              "--in", str(tmp_path / "msg.bin"), "--out", str(tmp_path / "msg.npct"))
    dec = run("decrypt", "--keystore", str(tmp_path / "n3.npks"),
              "--in", str(tmp_path / "msg.npct"), "--out", str(tmp_path / "msg.out"))
    assert enc.exit_code == dec.exit_code == 0, enc.output + dec.output
    assert (tmp_path / "msg.out").read_bytes() == bytes(range(80))
    assert [view.node for view in loaded] == [1, 3]
    assert all("groups" not in view.__dict__ for view in loaded)
    assert all(1 in nodes for nodes in loaded[0].groups) and "groups" in loaded[0].__dict__


def _mutations(doc):
    """doc with one key dropped, or one value replaced by another JSON
    type, for every key and value at any depth."""
    items = list(doc.items()) if isinstance(doc, dict) else list(enumerate(doc))
    for key, value in items:
        if isinstance(doc, dict):
            yield {k: v for k, v in doc.items() if k != key}
        for new in (None, True, 1.5, "x", [], {}, float("inf")):
            yield _replace(doc, key, new)
        if isinstance(value, (dict, list)):
            for mutated in _mutations(value):
                yield _replace(doc, key, mutated)


def _replace(doc, key, value):
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = value
    return out


@pytest.mark.parametrize("reader,doc", [
    (RateProfile.from_json, {"n": 4, "rates": [{"i": 1, "j": 2, "r": "1/9"},
                                               {"i": 3, "j": 4, "r": 0}]}),
    (Topology.from_json, {"n": 5, "edges": [[1, 2], [2, 5]]}),
])
def test_mutated_json_raises_value_error_or_loads(reader, doc):
    reader(json.dumps(doc))
    mutations = list(itertools.chain(_mutations(doc), (None, True, 1.5, "x", [], {})))
    assert len(mutations) > 40
    for mutated in mutations:
        try:
            reader(json.dumps(mutated))
        except ValueError:
            pass
