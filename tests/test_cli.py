import hashlib
import json

import pytest

from msrcodes import cli, storage
from msrcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_c3(capsys):
    code, out, _ = run(capsys, "params", "--family", "c3", "--n", "6", "--k", "2",
                       "--h", "2", "--d", "4")
    assert code == 0
    assert "ell=128" in out and "prime=13" in out


def test_params_c1_d_list(capsys):
    code, out, _ = run(capsys, "params", "--family", "c1", "--n", "5", "--k", "2",
                       "--d", "3,4")
    assert code == 0 and "ell=486" in out


def test_params_invalid_exits_1(capsys):
    code, _, err = run(capsys, "params", "--family", "c3", "--n", "6", "--k", "2",
                       "--h", "2", "--d", "5")
    assert code == 1 and "n-h" in err


def test_params_patterns_with_h_or_d_exits_1(capsys):
    for hd in (["--h", "1", "--d", "3"], ["--h", "2"], ["--d", "4"]):
        code, out, err = run(capsys, "params", "--family", "c3", "--n", "6", "--k", "2",
                             *hd, "--patterns", "2:4")
        assert code == 1 and out == "" and "--patterns excludes --h and --d" in err


@pytest.mark.parametrize("hd, message", [
    (["--h", "2"], "--d is required"),
    (["--d", "4"], "--h is required for family c3"),
    (["--h", "1,2", "--d", "3,4,5"], "--h and --d lists differ in length"),
])
def test_params_pattern_flags_are_checked(hd, message, capsys):
    code, out, err = run(capsys, "params", "--family", "c3", "--n", "6", "--k", "2", *hd)
    assert code == 1 and out == "" and message in err


def test_params_scalar_h_repeats_over_a_d_list(capsys):
    code, out, _ = run(capsys, "params", "--family", "c2", "--n", "6", "--k", "2",
                       "--h", "1", "--d", "3,4", "--json")
    assert code == 0 and json.loads(out)["patterns"] == [[1, 3], [1, 4]]


def test_params_json(capsys):
    code, out, _ = run(capsys, "params", "--family", "c2", "--n", "6", "--k", "2",
                       "--patterns", "1:3,1:4,1:5,2:4", "--json")
    assert code == 0
    info = json.loads(out)
    assert info["ell"] == 24576 and info["s_m"] == 4 and info["s"] == 6
    assert {"h": 2, "d": 4, "beta": 12288, "gamma": 49152} in info["bounds"]


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_encode_fail_repair_cycle(tmp_path, capsys):
    cluster = tmp_path / "cl"
    code, out, _ = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                       "--h", "2", "--d", "4", "--cluster", str(cluster),
                       "--random-bytes", "1000", "--seed", "3", "--json")
    assert code == 0
    info = json.loads(out)
    assert info["seed"] == 3 and info["prime"] == 257

    code, out, _ = run(capsys, "fail", "--cluster", str(cluster), "--nodes", "1,2")
    assert code == 0 and "[1, 2]" in out

    report_path = tmp_path / "r.json"
    code, out, _ = run(capsys, "repair", "--cluster", str(cluster),
                       "--nodes", "1,2", "--helpers", "3,4,5,6",
                       "--h", "2", "--d", "4", "--report", str(report_path))
    assert code == 0
    assert "optimal=True" in out
    rep = json.loads(report_path.read_text())
    assert rep["bound_report"]["optimal"] is True
    assert rep["transcript"]["pattern"] == [2, 4]


def test_encode_zero_blocks_exits_1(tmp_path, capsys):
    cluster = tmp_path / "cl"
    code, out, err = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                         "--h", "2", "--d", "4", "--cluster", str(cluster), "--blocks", "0")
    assert code == 1 and out == "" and "blocks" in err
    assert not cluster.exists()


def test_encode_blocks_with_a_payload_exits_1(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"0123456789")
    for source in (["--random-bytes", "10"], ["--payload", str(payload)]):
        cluster = tmp_path / "cl"
        code, out, err = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                             "--h", "2", "--d", "4", "--cluster", str(cluster),
                             *source, "--blocks", "7")
        assert code == 1 and out == "" and "--blocks" in err
        assert not cluster.exists()


def test_encode_payload_with_random_bytes_exits_1(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"0123456789")
    cluster = tmp_path / "cl"
    code, out, err = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                         "--h", "2", "--d", "4", "--cluster", str(cluster),
                         "--payload", str(payload), "--random-bytes", "10")
    assert code == 1 and out == "" and "--random-bytes" in err and "--payload" in err
    assert not cluster.exists()


def test_encode_patterns_with_h_and_d_exits_1(tmp_path, capsys):
    cluster = tmp_path / "cl"
    code, out, err = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                         "--h", "1", "--d", "3", "--patterns", "2:4",
                         "--cluster", str(cluster), "--random-bytes", "10")
    assert code == 1 and out == "" and "--patterns" in err
    assert not (cluster / "manifest.json").exists()


def test_encode_random_bytes_zero_is_an_empty_payload(tmp_path, capsys):
    code, out, _ = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                       "--h", "2", "--d", "4", "--cluster", str(tmp_path / "cl"),
                       "--random-bytes", "0", "--json")
    assert code == 0
    info = json.loads(out)
    assert info["prime"] == 257 and info["digest"] == hashlib.sha256(b"").hexdigest()

    code, out, err = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                         "--h", "2", "--d", "4", "--cluster", str(tmp_path / "neg"),
                         "--random-bytes", "-1")
    assert code == 1 and out == "" and "--random-bytes" in err


def test_repair_wrong_helpers_exits_1(tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
        "--h", "2", "--d", "4", "--cluster", str(cluster), "--blocks", "1")
    run(capsys, "fail", "--cluster", str(cluster), "--nodes", "1,2")
    code, _, err = run(capsys, "repair", "--cluster", str(cluster),
                       "--nodes", "1,2", "--helpers", "3,4,5", "--h", "2", "--d", "4")
    assert code == 1 and "d=4" in err


def test_repair_corrupted_helper_exits_2(tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
        "--h", "2", "--d", "4", "--cluster", str(cluster),
        "--random-bytes", "500", "--seed", "1")
    run(capsys, "fail", "--cluster", str(cluster), "--nodes", "1,2")
    # flip one element inside helper 3's shard data section
    shard = cluster / "shards" / "node_03.shard"
    blob = bytearray(shard.read_bytes())
    blob[40] ^= 1
    shard.write_bytes(bytes(blob))
    code, _, err = run(capsys, "repair", "--cluster", str(cluster),
                       "--nodes", "1,2", "--helpers", "3,4,5,6",
                       "--h", "2", "--d", "4")
    assert code == 2 and "digest" in err


def test_repair_missing_helper_shard_exits_2(tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
        "--h", "2", "--d", "4", "--cluster", str(cluster),
        "--random-bytes", "500", "--seed", "1")
    run(capsys, "fail", "--cluster", str(cluster), "--nodes", "1,2")
    (cluster / "shards" / "node_03.shard").unlink()
    code, out, err = run(capsys, "repair", "--cluster", str(cluster),
                         "--nodes", "1,2", "--helpers", "3,4,5,6",
                         "--h", "2", "--d", "4")
    assert code == 2 and out == ""
    assert "node_03.shard: shard file is missing" in err
    state = storage.load_cluster(cluster)
    for j in (1, 2):
        assert state.status(j) == "FAILED" and not state.shard_path(j).exists()


@pytest.mark.parametrize("report", ["missing/r.json", "a-file/r.json", "a-dir"])
def test_repair_report_that_cannot_be_written_exits_1_before_repairing(report, tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
        "--h", "2", "--d", "4", "--cluster", str(cluster),
        "--random-bytes", "500", "--seed", "1")
    run(capsys, "fail", "--cluster", str(cluster), "--nodes", "1,2")
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    before = {p: p.read_bytes() for p in cluster.rglob("*") if p.is_file()}
    report = tmp_path / report
    code, out, err = run(capsys, "repair", "--cluster", str(cluster),
                         "--nodes", "1,2", "--helpers", "3,4,5,6",
                         "--h", "2", "--d", "4", "--report", str(report))
    assert code == 1 and out == "" and "--report" in err
    assert not report.is_file()
    assert {p: p.read_bytes() for p in cluster.rglob("*") if p.is_file()} == before
    state = storage.load_cluster(cluster)
    for j in (1, 2):
        assert state.status(j) == "FAILED" and not state.shard_path(j).exists()


@pytest.mark.parametrize("argv, flag", [
    (["fail", "--nodes", "1,x"], "--nodes"),
    (["repair", "--nodes", "x", "--helpers", "3,4,5,6", "--h", "2", "--d", "4"], "--nodes"),
    (["repair", "--nodes", "1,2", "--helpers", "3,x,5,6", "--h", "2", "--d", "4"], "--helpers"),
    (["params", "--family", "c1", "--n", "5", "--k", "2", "--d", "3,x"], "--d"),
    (["params", "--family", "c3", "--n", "6", "--k", "2", "--h", "x", "--d", "4"], "--h"),
])
def test_malformed_node_lists_are_named(argv, flag, tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
        "--h", "2", "--d", "4", "--cluster", str(cluster), "--blocks", "1")
    if argv[0] != "params":
        argv = argv[:1] + ["--cluster", str(cluster)] + argv[1:]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert flag in err and "'x'" in err
    assert storage.load_cluster(cluster).failed_nodes() == []


def test_verify_mds(tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c1", "--n", "5", "--k", "2", "--d", "3,4",
        "--cluster", str(cluster), "--blocks", "1")
    code, out, _ = run(capsys, "verify-mds", "--manifest",
                       str(cluster / "manifest.json"), "--samples", "100",
                       "--seed", "2", "--json")
    assert code == 0
    info = json.loads(out)
    assert info["ok"] and info["subsets"] == 10  # exhaustive: C(5,2)


def test_verify_mds_checks_exactly_samples_distinct_seeded_subsets(tmp_path, capsys,
                                                                   monkeypatch):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c1", "--n", "5", "--k", "2", "--d", "3,4",
        "--cluster", str(cluster), "--blocks", "1")
    seen, real = [], cli.mds_reconstruct

    def record(spec, nodes, columns):
        seen.append(tuple(nodes))
        return real(spec, nodes, columns)

    monkeypatch.setattr(cli, "mds_reconstruct", record)
    runs = []
    for seed in ("4", "4", "5"):
        seen.clear()
        code, out, _ = run(capsys, "verify-mds", "--manifest", str(cluster / "manifest.json"),
                           "--samples", "3", "--seed", seed, "--json")
        assert code == 0 and json.loads(out)["subsets"] == 3
        assert len(set(seen)) == 3 and all(len(set(s)) == 2 for s in seen)
        runs.append(list(seen))
    assert runs[0] == runs[1] != runs[2]


def test_repair_of_no_nodes_is_nothing_to_repair(tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
        "--h", "2", "--d", "4", "--cluster", str(cluster), "--blocks", "1")
    code, out, _ = run(capsys, "repair", "--cluster", str(cluster), "--nodes", "",
                       "--helpers", "3,4,5,6", "--h", "2", "--d", "4")
    assert code == 0 and out == "nothing to repair\n"


def test_verify_mds_rejects_fewer_than_one_sample(tmp_path, capsys):
    cluster = tmp_path / "cl"
    run(capsys, "encode", "--family", "c1", "--n", "5", "--k", "2", "--d", "3,4",
        "--cluster", str(cluster), "--blocks", "1")
    for samples in ("0", "-3"):
        code, out, err = run(capsys, "verify-mds", "--manifest",
                             str(cluster / "manifest.json"), "--samples", samples)
        assert code == 1 and "--samples" in err and out == ""


def test_unreadable_input_path_exits_1(tmp_path, capsys):
    cluster = tmp_path / "cl"
    cluster.mkdir()
    for argv in (["verify-mds", "--manifest", str(cluster)],
                 ["encode", "--family", "c3", "--n", "6", "--k", "2", "--h", "2", "--d", "4",
                  "--cluster", str(tmp_path / "out"), "--payload", str(cluster)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert str(cluster) in err


@pytest.mark.parametrize("patterns, entry", [("", "''"), ("1:3,2", "'2'"), ("1:3:4", "'1:3:4'"),
                                              ("1:x", "'1:x'"), ("1:\u00b2", "'1:\u00b2'")])
def test_malformed_patterns_are_named(patterns, entry, capsys):
    code, out, err = run(capsys, "params", "--family", "c2", "--n", "6", "--k", "2",
                         "--patterns", patterns)
    assert code == 1 and out == ""
    assert "--patterns" in err and entry in err


def test_table_csv(tmp_path, capsys):
    out_csv = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "--n", "12", "--k", "6", "--h", "2",
                       "--d", "8", "--csv", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert str(12**12) in text and str(4 * 3**12) in text and str(2 * 2**12) in text
    assert "ye-barg" in out


def test_table_out_of_range_names_the_constraint(capsys):
    code, out, err = run(capsys, "table", "--n", "6", "--k", "2", "--h", "2", "--d", "5")
    assert code == 1 and out == ""
    assert "C4 requires k <= d <= n-h, got (h=2, d=5)" in err
    code, out, err = run(capsys, "table", "--n", "6", "--k", "2", "--h", "1", "--d", "4")
    assert code == 1 and "need 2 <= h <= n-k, got h=1" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "1")
    assert code == 0
    assert out.count("[PASS]") == 6 and "[FAIL]" not in out


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MSR_SEED", "9")
    cluster = tmp_path / "cl"
    code, out, _ = run(capsys, "encode", "--family", "c3", "--n", "6", "--k", "2",
                       "--h", "2", "--d", "4", "--cluster", str(cluster),
                       "--random-bytes", "64", "--json")
    assert code == 0 and json.loads(out)["seed"] == 9


def test_a_malformed_env_seed_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MSR_SEED", "abc")
    code, out, err = run(capsys, "selftest")
    assert code == 1 and out == ""
    assert "MSR_SEED" in err and "'abc'" in err
