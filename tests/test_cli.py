"""CLI contract tests: exit codes, file outputs, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapsieve
from gapsieve import cli
from gapsieve import nibble as nib
from gapsieve.cli import main
from gapsieve.oracle import exact_Y
from gapsieve.residues import CoverageError, system_to_json, write_system_file
from gapsieve.weights import FormSystem, WeightSystem


def test_construct_smoke_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["construct", "500", "--stage3", "nibble", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["construct", "500", "--stage3", "nibble", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert (out1 / "system.json").read_bytes() == (out2 / "system.json").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# seed-1 outputs of the benchmark's construct commands and of the three
# stage-3 methods: sha256 of system.json and the report's residual after
# stage 3.  A change to how stage 3 stores or samples its instance that
# keeps the same draws keeps these bytes.
PINNED_CONSTRUCTS = [
    ("3000 --mode paper-formula",
     "d7a3f79714b4880c43f7a12751f14389c1876445fec8de2286c0c436dea5d382", 761),
    ("2000 --mode paper-formula --weights sieve --stage3 independent",
     "8c5212a6e415b055436f86ce193964752da7e3fb698e9bfa178e4bf1e915fc66", 630),
    ("5000 --stage3 nibble",
     "e03405f02df4d0a82f8767afeea05371543a72948104c14fda8e097f37662ca6", 632),
    ("5000 --stage3 independent",
     "c364de31e800e82ef33078af9f8172b31d453c752a0c89f11db5c7d4990f9f1f", 641),
    ("5000 --stage3 greedy",
     "c6a0ef2eda85ccfc06d1f5b111fe3567aced6945cc404735758ebf450afa2641", 562),
]


@pytest.mark.parametrize("args, digest, residual", PINNED_CONSTRUCTS,
                         ids=[a for a, _, _ in PINNED_CONSTRUCTS])
def test_construct_outputs_pinned(tmp_path, args, digest, residual):
    assert main(["construct", *args.split(), "--seed", "1", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "system.json").read_bytes()).hexdigest() == digest
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["residual_after_stage3"] == residual


# sha256 of the summary and of the --dump table of two `weights` runs; the
# summary names its dump file, so both are written relative to one directory
PINNED_WEIGHTS = [
    ("2 35 100000 --samples 20000", 15,
     "298509e7618ec5fa99ba983507a18e6c15536565057e59edc4b7cbb9b6813f85",
     "5e9d18baee08bce976a098efbed3cbd40b056255f3eef9d0b636a44c6acccfa4"),
    ("3 120 1000000 --B 19 --samples 20000", 67,
     "03d6b188fe3eed121f8069fe08d181225fea92929eec3106e6433c5857a219ea",
     "a0bfe0096c4846839d2e39404fe168009b22145556bf855e88976ee0eed5b784"),
]


@pytest.mark.parametrize("args, entries, summary_digest, dump_digest", PINNED_WEIGHTS)
def test_weights_outputs_pinned(tmp_path, monkeypatch, args, entries, summary_digest,
                                dump_digest):
    monkeypatch.chdir(tmp_path)
    assert main(["weights", *args.split(), "--dump", "table.json", "--out", "summary.json"]) == 0
    assert len(json.loads(Path("table.json").read_text())["lambda"]) == entries
    assert hashlib.sha256(Path("summary.json").read_bytes()).hexdigest() == summary_digest
    assert hashlib.sha256(Path("table.json").read_bytes()).hexdigest() == dump_digest


def test_construct_usage_error_below_minimum(tmp_path):
    assert main(["construct", "50", "--out", str(tmp_path / "x")]) == 2


def test_construct_report_schema(tmp_path):
    out = tmp_path / "r"
    main(["construct", "500", "--seed", "1", "--out", str(out)])
    doc = json.loads((out / "report.json").read_text())
    assert doc["manifest"]["tool"] == "gapsieve"
    assert doc["manifest"]["command"] == "construct"
    assert "system_sha256" in doc["manifest"]
    assert doc["report"]["achieved_y"] > 500


def test_verify_witness_and_tampered(tmp_path):
    res = exact_Y(7)
    good = tmp_path / "good.json"
    write_system_file(good, 7, res.witness)
    assert main(["verify", str(good), "--interval", "1", "9"]) == 0

    tampered = dict(res.witness.entries)
    tampered[7] = (tampered[7] + 1) % 7  # break one class
    bad = tmp_path / "bad.json"
    bad.write_text(system_to_json(7, type(res.witness)(tampered)))
    out = tmp_path / "verdict.json"
    code = main(["verify", str(bad), "--interval", "1", "9", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["first_uncovered"] is not None
    assert 1 <= doc["first_uncovered"] <= 9


def test_verify_defaults_to_the_interval_the_file_claims(tmp_path):
    out = tmp_path / "c"
    assert main(["construct", "1000", "--stage3", "none", "--seed", "1",
                 "--out", str(out)]) == 0
    y = json.loads((out / "report.json").read_text())["report"]["achieved_y"]
    verdict = tmp_path / "v.json"
    assert main(["verify", str(out / "system.json"), "--out", str(verdict)]) == 0
    doc = json.loads(verdict.read_text())
    assert doc["interval"] == [1001, y] and doc["covered"] and doc["survivors"] == 0

    # a file without the key still verifies its covered prefix
    wfile = tmp_path / "w7.json"
    write_system_file(wfile, 7, exact_Y(7).witness)
    assert "interval" not in wfile.read_text()
    assert main(["verify", str(wfile), "--out", str(verdict)]) == 0
    assert json.loads(verdict.read_text())["interval"] == [1, 9]


def test_verify_empty_system_reports_position_one(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text('{"x": 2, "classes": []}\n')
    out = tmp_path / "v.json"
    assert main(["verify", str(f), "--interval", "1", "1", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["first_uncovered"] == 1


def test_gap_x13_certificate(tmp_path):
    res = exact_Y(13)
    f = tmp_path / "w13.json"
    write_system_file(f, 13, res.witness)
    out = tmp_path / "gap.json"
    assert main(["gap", str(f), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["m"] <= 30043
    assert doc["run_length"] == 21
    assert doc["enclosing_gap_length"] >= 22
    assert doc["gap_at_least_run"]


def test_gap_scan_skipped_beyond_limit(tmp_path):
    f = tmp_path / "w29.json"
    f.write_text('{"x": 29, "classes": []}\n')
    out = tmp_path / "gap.json"
    assert main(["gap", str(f), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "gap_scan" in doc and "skipped" in doc["gap_scan"]


def test_oracle_command(tmp_path):
    wfile = tmp_path / "w7.json"
    out = tmp_path / "o.json"
    assert main(["oracle", "7", "--witness", str(wfile), "--cross-check",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["Y"] == 9
    assert doc["cross_check_ok"]
    assert main(["verify", str(wfile), "--interval", "1", "9"]) == 0
    verdict = tmp_path / "v.json"
    assert main(["verify", str(wfile), "--out", str(verdict)]) == 0
    assert json.loads(verdict.read_text())["interval"] == [1, 9]
    assert json.loads(wfile.read_text())["interval"] == [1, 9]


def test_oracle_infeasible_exit_code(tmp_path):
    assert main(["oracle", "19"]) == 4


def test_nibble_bench(tmp_path):
    inst = nib.CoverInstance(
        n_vertices=4,
        rounds=[[0, 1]],
        dist={
            0: nib.EdgeDist([(frozenset({0, 1}), 0.5), (frozenset({2}), 0.5)]),
            1: nib.EdgeDist([(frozenset({3}), 1.0)]),
        },
        params=nib.NibbleParams(delta=0.9, r_max=2, A=5, D=3, kappa=0.01),
    )
    ifile = tmp_path / "inst.json"
    ifile.write_text(nib.instance_to_json(inst))
    out = tmp_path / "bench.csv"
    stats = tmp_path / "stats.csv"
    assert main(["nibble-bench", str(ifile), "--seeds", "10",
                 "--out", str(out), "--stats", str(stats)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,leftover,edges_used"
    assert len(lines) == 11
    assert stats.read_text().startswith("round,index,X,F_passed,W_size")


def test_nibble_bench_underflowed_targets_stay_quiet(tmp_path):
    # 800 indices share the certain edge {0}, so P_1(0) = exp(-800) underflows
    # to 0; round 2 divides by that target and round 3, where vertex 0 has
    # degree 0, divides 0 by it
    dist = {i: nib.EdgeDist([(frozenset({0}), 1.0)]) for i in range(800)}
    dist[800] = nib.EdgeDist([(frozenset({0}), 0.5)])
    dist[801] = nib.EdgeDist([(frozenset({1}), 0.5)])
    inst = nib.CoverInstance(
        n_vertices=2, rounds=[list(range(800)), [800], [801]], dist=dist,
        params=nib.NibbleParams(delta=1.0, r_max=1, A=3, D=800, kappa=1e-300),
    )
    ifile = tmp_path / "inst.json"
    ifile.write_text(nib.instance_to_json(inst))
    stats = tmp_path / "stats.csv"
    src = str(Path(gapsieve.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "gapsieve.cli", "nibble-bench", str(ifile), "--seeds", "2",
         "--tol", "0.5", "--out", str(tmp_path / "bench.csv"), "--stats", str(stats)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(stats.read_text().splitlines()) == 1 + 802


def test_weights_dump_schema(tmp_path):
    dump = tmp_path / "table.json"
    out = tmp_path / "w.json"
    assert main(["weights", "2", "35", "100000", "--dump", str(dump),
                 "--out", str(out), "--samples", "5000"]) == 0
    doc = json.loads(dump.read_text())
    assert set(doc) == {"k", "forms", "B", "R", "lambda"}
    assert doc["k"] == 2
    assert doc["forms"] == [[1, 3], [1, 5]]
    ws = WeightSystem(FormSystem([3, 5]), R=35)
    table = {tuple(d): v for d, v in doc["lambda"]}
    assert set(table) == set(ws.table)
    for d, v in ws.table.items():
        assert table[d] == pytest.approx(v, rel=1e-12, abs=1e-12)
    summary = json.loads(out.read_text())
    assert summary["I_k"] > 0 and summary["tau_F_relative"] > 0


@pytest.mark.parametrize("x", ["0", "1"])
def test_weights_scale_below_two_is_usage_error(capsys, x):
    assert main(["weights", "2", "35", x, "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"got {x}" in err


def test_weights_scale_checked_before_monte_carlo(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrals_IJ ran before x was checked")

    monkeypatch.setattr(cli, "integrals_IJ", refuse)
    assert main(["weights", "2", "35", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "got 1" in err


@pytest.mark.parametrize("x", [0, 1, 2, 13])
def test_oracle_witness_verify_gap_round_trip(tmp_path, x):
    w = tmp_path / "w.json"
    assert main(["oracle", str(x), "--witness", str(w), "--out", str(tmp_path / "o.json")]) == 0
    Y = json.loads((tmp_path / "o.json").read_text())["Y"]
    # with no prime <= x the empty witness covers nothing, not even 1
    assert main(["verify", str(w), "--out", str(tmp_path / "v.json")]) == (0 if Y else 3)
    # a subprocess with a timeout, so a scan that never ends fails the test
    # (a healthy run takes well under a second; a runaway scan's window doubles)
    g = tmp_path / "g.json"
    src = str(Path(gapsieve.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "gapsieve.cli", "gap", str(w), "--out", str(g)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=15,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(g.read_text())
    assert doc["run_length"] == Y
    if doc["m"] < 2:
        assert doc["gap_scan"].startswith("skipped: no prime")
    else:
        assert doc["gap_at_least_run"]


def test_gap_skips_scan_without_primorial_of_huge_x(tmp_path, capsys, monkeypatch):
    real_primorial = cli.primorial

    def bounded(x):
        assert x <= 10**4, f"primorial({x}) requested"
        return real_primorial(x)

    monkeypatch.setattr(cli, "primorial", bounded)
    f = tmp_path / "w.json"
    f.write_text('{"x": %d, "classes": [[2, 1], [3, 2]]}\n' % 10**9)
    out = tmp_path / "g.json"
    assert main(["gap", str(f), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["run_length"] == 3
    assert doc["gap_scan"] == f"skipped: primorial({10**9}) exceeds {cli.GAP_SCAN_LIMIT}"


def test_gap_on_construct_output_is_usage_error(tmp_path, capsys):
    # construct writes fresh primes above x, which gap does not accept
    out = tmp_path / "c"
    assert main(["construct", "1000", "--stage3", "none", "--seed", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["gap", str(out / "system.json")]) == 2
    err = capsys.readouterr().err
    assert "exceeds x" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "gap"])
def test_missing_system_file_is_usage_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert "absent.json" in err and len(err.strip().splitlines()) == 1


def test_non_prime_modulus_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"x": 10, "classes": [[2, 0], [9, 1]]}\n')
    assert main(["verify", str(f), "--interval", "1", "5"]) == 2
    err = capsys.readouterr().err
    assert "modulus 9 is not prime" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, classes", [("verify", "[[2]]"), ("gap", "7")])
def test_malformed_classes_is_usage_error(tmp_path, capsys, command, classes):
    f = tmp_path / "bad.json"
    f.write_text('{"x": 10, "classes": %s}\n' % classes)
    assert main([command, str(f)]) == 2
    err = capsys.readouterr().err
    assert "classes" in err and len(err.strip().splitlines()) == 1


def test_nibble_bench_malformed_instance_is_usage_error(tmp_path, capsys):
    f = tmp_path / "inst.json"
    f.write_text('{"vertices": 3}\n')
    assert main(["nibble-bench", str(f), "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert "params" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("prob, what", [("NaN", "finite"), ("-0.5", "finite"),
                                         ("1" + "0" * 400, "too large")],
                         ids=["nan", "negative", "huge-int"])
def test_nibble_bench_bad_probability_is_usage_error(tmp_path, capsys, prob, what):
    f = tmp_path / "inst.json"
    f.write_text('{"vertices": 3, "rounds": [[0]], "dist": {"0": [[[0, 1], %s], [[2], 0.5]]}, '
                 '"params": {"delta": 0.5, "r_max": 2, "A": 5, "D": 3, "kappa": 0.01}}\n'
                 % prob)
    assert main(["nibble-bench", str(f), "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert what in err and len(err.strip().splitlines()) == 1


def test_construct_budget_exhausted_is_infeasible(tmp_path, capsys):
    # (1000, 1010] holds one fresh prime, far fewer than the residual
    assert main(["construct", "1000", "--c-extra", "1.01", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "fresh primes" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("option, value", [("--c-extra", "0"), ("--c", "0.3")])
def test_construct_bad_budget_or_scale_is_usage_error(tmp_path, capsys, option, value):
    # --c-extra 0 leaves no fresh primes; --c 0.3 gives y = 91 <= x = 100
    assert main(["construct", "100", option, value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{option} " in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "system.json").exists()


def test_gap_coverage_failure_is_verification_error(tmp_path, capsys, monkeypatch):
    def uncovered(system, x):
        raise CoverageError(5)

    f = tmp_path / "w.json"
    write_system_file(f, 7, exact_Y(7).witness)
    monkeypatch.setattr(cli, "assemble_gap", uncovered)
    assert main(["gap", str(f)]) == 3
    err = capsys.readouterr().err
    assert "position 5" in err and len(err.strip().splitlines()) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["construct"])  # missing x
    assert exc.value.code == 2
