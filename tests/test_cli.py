"""CLI contract tests: exit codes, file outputs, determinism."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gapsieve
from gapsieve import cli, residues
from gapsieve import nibble as nib
from gapsieve.cli import main
from gapsieve.oracle import exact_Y
from gapsieve.pipeline import (StagedConfig, build_edge_distributions, stage1_zero_classes,
                               stage2_random_small, survivors_after_small)
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
# stage-3 methods: sha256 of system.json, the report's residual after
# stage 3 and sha256 of report.json (which also holds the stage-3 counts
# stage3_assigned, stage3_skips and stage3_edge_sizes).  A change to how
# stage 3 stores or samples its law that keeps the same draws keeps these
# bytes.  The independent, nibble and sieve-mode system digests changed when
# stage 3 moved from per-prime random.Random streams to counter-based
# uniforms (rng.uniforms): the same law, drawn with other random numbers.
# The greedy and stage3-none rows did not change.  Every report digest
# changed when the fresh-prime budget left the manifest's config and the
# report gained max_modulus; no system digest or residual moved.
PINNED_CONSTRUCTS = [
    ("3000 --mode paper-formula",
     "cb396a9433cd25804123d1bb885b877f8041d3c26007deee96a32475f72bb5e4", 776,
     "f773b72294c865cbbb696ee32916758ba987716c085dcd4f06ac1df71a2a7db2"),
    ("2000 --mode paper-formula --weights sieve --stage3 independent",
     "5f5d4c2d7021ad4b662f8343e708d0e02e6f1918af40f00593631b78d5d599f8", 643,
     "c4c45ac03f22be45915df473b5b10629e0dbfbe6c4a0dcc3d9d4dbc45cfd719a"),
    ("5000 --stage3 nibble",
     "8c6afdeb1b436676ea3fef610fbc57660831d044d1984774187213878b3dae65", 649,
     "7c820604c37004d3b3f7576fe35667be8832c0fa45fba3c82ec0e45686ccf274"),
    ("5000 --stage3 independent",
     "1f896c60897d3e9e291a29500d8471fff4b907fd407fa32bfc86412314bbde00", 636,
     "c24ba680650412b4473fc29476f0d3fda95e1909d0fcb89fa87a9034ccd21795"),
    ("5000 --stage3 greedy",
     "c6a0ef2eda85ccfc06d1f5b111fe3567aced6945cc404735758ebf450afa2641", 562,
     "adef6102a2e667f1c5e6887f1a48cfce264b618f150eb7246584e433f73893c6"),
    ("1000000 --stage3 none",
     "843ae937ed865cc9a1aaa57aad02a0efdb73c367e081ad9133eeccebec2fefcf", 143731,
     "ab20821b0cc7017d71636c87c9c78ef4350442cec97f5bf14f9957b713de9967"),
    # moduli on both sides of the prime table's limit 2^16 (to 110,729 and
    # 103,643), so both the table and the segmented sieve make these bytes
    ("50000 --stage3 nibble",
     "21338d42ba90f75e6d180fdfc5c165c3825e318852c7a0f1735b1c1585bd127d", 5377,
     "c9db2b6b4f74286180f2f4f235b67a121773e0bb047e830de82419c0bc4c0fe0"),
    ("50000 --stage3 greedy",
     "b75c88580ac601446d46fe00b1f43ae8ff86efcf56a812e1467cb1c2bd753920", 4770,
     "752d20698ce5c8325d254b34c3579081500d66b8aa54dc0ba49344a55ceb813c"),
]


@pytest.mark.parametrize("args, digest, residual, report_digest", PINNED_CONSTRUCTS,
                         ids=[row[0] for row in PINNED_CONSTRUCTS])
def test_construct_outputs_pinned(tmp_path, args, digest, residual, report_digest):
    assert main(["construct", *args.split(), "--seed", "1", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "system.json").read_bytes()).hexdigest() == digest
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == report_digest
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["residual_after_stage3"] == residual
    # the written system is accepted by verify over its recorded interval
    assert main(["verify", str(tmp_path / "system.json"), "--out", str(tmp_path / "v.json")]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["covered"] is True


# sha256 of the summary and of the --dump table of two `weights` runs; the
# summary names its dump file, so both are written relative to one directory
PINNED_WEIGHTS = [
    ("2 35 100000", 15,
     "16438fa017a3b35d370311decefea03fb4845c3613148aeced280c6901ead5f4",
     "5e9d18baee08bce976a098efbed3cbd40b056255f3eef9d0b636a44c6acccfa4"),
    ("3 120 1000000 --B 19", 67,
     "ab2a0f63d2119a4a34f73a61ddc969d3714d1d0db9983d95d55fbd8e7bf1f82b",
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


def test_construct_hashes_the_bytes_it_wrote(tmp_path, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(Path, "read_bytes", lambda self: pytest.fail(f"read back {self}"))
        assert main(["construct", "500", "--seed", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    data = (tmp_path / "system.json").read_bytes()
    assert doc["manifest"]["system_sha256"] == hashlib.sha256(data).hexdigest()
    # the writer returns exactly what it wrote
    assert write_system_file(tmp_path / "again.json", 7, exact_Y(7).witness, (1, 5)) == (
        (tmp_path / "again.json").read_bytes())


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
    assert main(["oracle", "29"]) == 4
    assert main(["oracle", "19", "--cutoff", "17"]) == 4


def test_oracle_cross_check_beyond_period_cutoff_fails_before_search(tmp_path, monkeypatch,
                                                                      capsys):
    # primorial(29) exceeds the period-scan cutoff: exit 4 before any search
    def no_search(*args, **kwargs):
        raise AssertionError("exact_Y ran")

    monkeypatch.setattr(cli, "exact_Y", no_search)
    out = tmp_path / "o29.json"
    assert main(["oracle", "29", "--cutoff", "29", "--cross-check", "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("infeasible:") and len(err.strip().splitlines()) == 1


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


def pinned_bench_instance(name):
    """The instance a golden nibble-bench run reads.  The uniform instance
    shares one EdgeDist object across its indices; a file cannot say that,
    so the test hands it to the command in process."""
    if name == "paper-1000":
        cfg = StagedConfig(x=1000, mode="paper-formula", seed=1)
        split = survivors_after_small(cfg, stage1_zero_classes(cfg), stage2_random_small(cfg))
        return build_edge_distributions(cfg, split).cover
    rng = random.Random(5)
    edges = [rng.sample(range(60), rng.randrange(1, 4)) for _ in range(90)]
    return nib.build_uniform_instance(60, edges, nib.uniform_round_counts(40, 3, 3))


# sha256 of nibble-bench's --out and --stats CSVs: a change to how the
# engine reads an instance that keeps its draws keeps these bytes.  Both
# --out rows changed with the move to counter-based uniforms, and the
# uniform instance's --stats with them (its later rounds see another W).
PINNED_BENCH = [
    ("paper-1000", "402711ba235256f0a20a01b11a18c28e0ba4c471d651d58107963b08f61d1041",
     "289e425998922eb200f870100e997ba0f15d962adcbe6ff6ecc125bf28c32057"),
    ("uniform-shared", "7788f048ee506a1988d692a51587bb5e6e607eb215324c2ed340c537f539174a",
     "5cf74aec754d1e463c5399c63e83a3f07c7f5ed612a077dcae3776912a15790a"),
]


@pytest.mark.parametrize("name, out_digest, stats_digest", PINNED_BENCH,
                         ids=[n for n, _, _ in PINNED_BENCH])
def test_nibble_bench_outputs_pinned(tmp_path, monkeypatch, name, out_digest, stats_digest):
    inst = pinned_bench_instance(name)
    ifile = tmp_path / "inst.json"
    ifile.write_text(nib.instance_to_json(inst))
    if name == "uniform-shared":
        monkeypatch.setattr(nib, "instance_from_json", lambda text: inst)
    out, stats = tmp_path / "bench.csv", tmp_path / "stats.csv"
    assert main(["nibble-bench", str(ifile), "--seeds", "5",
                 "--out", str(out), "--stats", str(stats)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(stats.read_bytes()).hexdigest() == stats_digest


def width_instance(name):
    """"narrow": every edge is narrower than r_max = 4, and round 1 holds
    singletons only while round 2 holds pairs; "empty": every atom is the
    empty edge and r_max = 0."""
    if name == "narrow":
        rounds, n, r_max = [[0, 1], [2, 3]], 5, 4
        atoms = {0: [({0}, 0.5), ({1}, 0.25)], 1: [({2}, 0.5)],
                 2: [({1, 3}, 0.3), ({4}, 0.3)], 3: [({0, 4}, 0.5)]}
    else:
        rounds, n, r_max = [[0, 1]], 2, 0
        atoms = {0: [(set(), 0.5)], 1: [(set(), 1.0)]}
    return nib.CoverInstance(
        n_vertices=n, rounds=rounds,
        dist={i: nib.EdgeDist([(frozenset(e), q) for e, q in a]) for i, a in atoms.items()},
        params=nib.NibbleParams(delta=0.5, r_max=r_max, A=3, D=2, kappa=0.01),
    )


# sha256 of nibble-bench's --out and --stats CSVs on instances whose edges
# are narrower than r_max, pinned when the engine still returned frozensets:
# the width of the engine's member rows must not show in its output
PINNED_WIDTH = [
    ("narrow", "06c38508ae4c162aded1d38dbee8d00d9c1e8ebd1b5afc38196931edc0cd165d",
     "c447a526c86a94fc2940be5568417f25adb93dc27217171816e8a0d2ce491feb"),
    ("empty", "badf054355a47c63674dcd6c50fdf79031103ea86fbf678d1aae81617a5f0bec",
     "d47171b663feb984d8fc0ea0995667702fd139f2a1283c99b35e7d8e7fb94fc6"),
]


@pytest.mark.parametrize("name, out_digest, stats_digest", PINNED_WIDTH,
                         ids=[n for n, _, _ in PINNED_WIDTH])
def test_nibble_bench_rows_narrower_than_r_max(tmp_path, name, out_digest, stats_digest):
    ifile = tmp_path / "inst.json"
    ifile.write_text(nib.instance_to_json(width_instance(name)))
    out, stats = tmp_path / "bench.csv", tmp_path / "stats.csv"
    assert main(["nibble-bench", str(ifile), "--seeds", "8",
                 "--out", str(out), "--stats", str(stats)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(stats.read_bytes()).hexdigest() == stats_digest


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
    assert main(["weights", "2", "35", "100000", "--dump", str(dump), "--out", str(out)]) == 0
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
    assert main(["weights", "2", "35", x]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"got {x}" in err


@pytest.mark.parametrize("R", ["inf", "1e400", "nan"])
def test_weights_R_not_finite_is_usage_error(capsys, R):
    assert main(["weights", "2", R, "1000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "R must be a finite number >= 1" in err


@pytest.mark.parametrize("k", range(1, 13))
def test_weights_integrals_are_the_exact_fractions(tmp_path, k):
    out = tmp_path / "w.json"
    assert main(["weights", str(k), "35", "1000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    f = math.factorial
    assert doc["I_k"] == float(Fraction(f(2 * k + 2), f(3 * k + 2)))
    assert doc["J_k"] == float(Fraction(f(2 * k + 4), (k + 2) ** 2 * f(3 * k + 3)))
    assert doc["tau_F_relative"] > 0 and doc["u_F_relative"] > 0
    if k == 12:  # the simplex has volume 1/12!, yet I_12 = 26!/38! exactly
        assert doc["I_k"] == float(Fraction(f(26), f(38)))


def test_weights_u_at_k6_is_exact(tmp_path):
    out = tmp_path / "w.json"
    assert main(["weights", "6", "1000", "100000", "--out", str(out)]) == 0
    # u = (log R / log x) k J/(2I) = 0.6 * 6 * (5/28) / 2 = 9/28
    assert json.loads(out.read_text())["u_F_relative"] == pytest.approx(9 / 28, rel=1e-12)


def test_weights_large_prime_B_needs_no_trial_division(tmp_path):
    # B = 2^61 - 1: phi(W*B) = phi(W) (B - 1), with no factorisation up to sqrt(B)
    src = str(Path(gapsieve.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "gapsieve.cli", "weights", "2", "35", "1000",
         "--B", str(2**61 - 1), "--out", str(tmp_path / "w.json")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "w.json").read_text())["table_size"] == 15


def test_weights_B_beyond_psi_12_is_usage_error(capsys):
    assert main(["weights", "2", "35", "1000", "--B", "318665857834031151167461"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not proven" in err


@pytest.mark.parametrize("option", ["--samples", "--seed"])
def test_weights_has_no_monte_carlo_options(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "2", "35", "1000", option, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 5" in capsys.readouterr().err


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


def test_modulus_beyond_psi_12_is_usage_error(tmp_path, capsys):
    # psi_12 = 399,165,290,221 * 798,330,580,441 passes Miller-Rabin to every
    # base 2..37; read as a prime it would leave 3 uncovered (exit 3)
    f = tmp_path / "psi12.json"
    f.write_text('{"x":5,"classes":[[2,0],[3,1],[318665857834031151167461,1]]}\n')
    assert main(["verify", str(f), "--interval", "1", "4"]) == 2
    err = capsys.readouterr().err
    assert "318665857834031151167461 is not proven" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "gap"])
def test_prefix_scan_limit_is_infeasible(tmp_path, capsys, monkeypatch, command):
    # the oracle 13 witness, written without an interval, covers [1, 21]:
    # past a scan limit of 10 there is no survivor to stop the prefix scan
    f = tmp_path / "w.json"
    f.write_text(system_to_json(13, exact_Y(13).witness, None))
    monkeypatch.setattr(residues, "PREFIX_SCAN_LIMIT", 10)
    assert main([command, str(f)]) == 4
    err = capsys.readouterr().err
    assert err == "infeasible: no survivor found below 10\n"


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


# true and "0.5" were read as the numbers 1.0 and 0.5
@pytest.mark.parametrize("prob, what", [("NaN", "finite"), ("-0.5", "finite"),
                                         ("1" + "0" * 400, "too large"),
                                         ("true", "number"), ('"0.5"', "number")],
                         ids=["nan", "negative", "huge-int", "bool", "string"])
def test_nibble_bench_bad_probability_is_usage_error(tmp_path, capsys, prob, what):
    f = tmp_path / "inst.json"
    f.write_text('{"vertices": 3, "rounds": [[0]], "dist": {"0": [[[0, 1], %s], [[2], 0.5]]}, '
                 '"params": {"delta": 0.5, "r_max": 2, "A": 5, "D": 3, "kappa": 0.01}}\n'
                 % prob)
    assert main(["nibble-bench", str(f), "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert what in err and len(err.strip().splitlines()) == 1


# "D": "1" and "A": true were read as numbers; a NaN delta failed as "tol must
# be < 1", and with --tol 0.5 it was accepted
@pytest.mark.parametrize("param, value, tol, what", [
    ("D", '"1"', [], "params.D must be a finite number"),
    ("A", "true", [], "params.A must be a finite number"),
    ("delta", "NaN", [], "params.delta must be a finite number"),
    ("delta", "NaN", ["--tol", "0.5"], "params.delta must be a finite number"),
], ids=["string-D", "bool-A", "nan-delta", "nan-delta-tol"])
def test_nibble_bench_bad_param_is_usage_error(tmp_path, capsys, param, value, tol, what):
    params = {"delta": "0.5", "r_max": "2", "A": "5", "D": "3", "kappa": "0.01", param: value}
    f = tmp_path / "inst.json"
    f.write_text('{"vertices": 3, "rounds": [[0]], "dist": {"0": [[[0, 1], 0.5]]}, '
                 '"params": {%s}}\n' % ", ".join(f'"{k}": {v}' for k, v in params.items()))
    assert main(["nibble-bench", str(f), "--seeds", "1", *tol]) == 2
    err = capsys.readouterr().err
    assert what in err and len(err.strip().splitlines()) == 1


# each was accepted with exit 0: --seeds 0 or -3 wrote no stats file, and
# --tol -0.5 skipped every index; --tol nan was refused as "tol must be < 1"
@pytest.mark.parametrize("option, what", [
    (["--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["--seeds", "-3"], "--seeds must be at least 1, got -3"),
    (["--tol", "-0.5"], "tol must be in [0, 1)"),
    (["--tol", "nan"], "tol must be in [0, 1)"),
], ids=["seeds-0", "seeds-negative", "tol-negative", "tol-nan"])
def test_nibble_bench_bad_option_is_usage_error(tmp_path, capsys, option, what):
    f, stats = tmp_path / "inst.json", tmp_path / "stats.csv"
    f.write_text(instance_text())
    assert main(["nibble-bench", str(f), *option, "--stats", str(stats)]) == 2
    err = capsys.readouterr().err
    assert what in err and len(err.strip().splitlines()) == 1
    assert not stats.exists()


# with no rounds, --tol -0.5 exited 0: tol was checked once per round
@pytest.mark.parametrize("tol", ["-0.5", "1", "nan"])
def test_nibble_bench_bad_tol_without_rounds_is_usage_error(tmp_path, capsys, tol):
    f = tmp_path / "inst.json"
    f.write_text(instance_text(rounds="[]"))
    assert main(["nibble-bench", str(f), "--tol", tol, "--out", str(tmp_path / "b.csv")]) == 2
    err = capsys.readouterr().err
    assert "tol must be in [0, 1)" in err and len(err.strip().splitlines()) == 1


def instance_text(vertices="3", rounds="[[0, 1]]", atom="[[0], 0.5]", r_max="2", extra=""):
    return ('{"vertices": %s, "rounds": %s, "dist": {"0": [%s], "1": [[[2], 0.5]]%s}, '
            '"params": {"delta": 0.5, "r_max": %s, "A": 5, "D": 3, "kappa": 0.01}}\n'
            % (vertices, rounds, atom, extra, r_max))


# a valid instance file with one field replaced; the file was read before
# with vertex ids 0.9 and 1.7 as {0, 1}, true as 1, and a second key "01",
# " 1" or "1" over index 1
MALFORMED_IDS = {
    "float-vertex": ({"atom": "[[0.9, 1.7], 0.5]"}, "vertex ids"),
    "bool-vertex": ({"atom": "[[true], 0.5]"}, "vertex ids"),
    "float-round-entry": ({"rounds": "[[0, 1.0]]"}, "round entries"),
    "bool-round-entry": ({"rounds": "[[0, true]]"}, "round entries"),
    "float-vertices": ({"vertices": "3.5"}, "vertices"),
    "bool-vertices": ({"vertices": "true"}, "vertices"),
    "float-r_max": ({"r_max": "2.5"}, "r_max"),
    "bool-r_max": ({"r_max": "true"}, "r_max"),
    "duplicate-key": ({"extra": ', "01": [[[1], 0.5]]'}, "'01' is not written as 1"),
    "spaced-key": ({"extra": ', " 1": [[[1], 0.5]]'}, "' 1' is not written as 1"),
    "repeated-key": ({"extra": ', "1": [[[1], 0.5]]'}, "appears twice"),
}


@pytest.mark.parametrize("case", MALFORMED_IDS)
def test_nibble_bench_malformed_id_is_usage_error(tmp_path, capsys, case):
    fields, what = MALFORMED_IDS[case]
    f = tmp_path / "inst.json"
    f.write_text(instance_text(**fields))
    assert main(["nibble-bench", str(f), "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert what in err and len(err.strip().splitlines()) == 1
    f.write_text(instance_text())  # the same file, well formed
    assert main(["nibble-bench", str(f), "--seeds", "1", "--out", str(tmp_path / "b.csv")]) == 0


# with no rounds this exited 0 with leftover 0; with a round, numpy's
# "negative dimensions are not allowed" named no field
@pytest.mark.parametrize("rounds, dist", [("[]", "{}"), ("[[0]]", '{"0": []}')],
                         ids=["no-rounds", "one-round"])
def test_nibble_bench_negative_vertices_is_usage_error(tmp_path, capsys, rounds, dist):
    f = tmp_path / "inst.json"
    f.write_text('{"vertices": -1, "rounds": %s, "dist": %s, "params": {"delta": 0.5, '
                 '"r_max": 2, "A": 5, "D": 3, "kappa": 0.01}}\n' % (rounds, dist))
    assert main(["nibble-bench", str(f), "--seeds", "1", "--out", str(tmp_path / "b.csv")]) == 2
    err = capsys.readouterr().err
    assert "vertices must be at least 0, got -1" in err and len(err.strip().splitlines()) == 1


def test_construct_takes_fresh_primes_beyond_ten_x(tmp_path):
    # the residual of (1000, 14297] needs more fresh primes than
    # (1000, 10000] holds; final matching sieves on until it has them
    assert main(["construct", "1000", "--c", "4", "--seed", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["extra_primes_used"] == 1178
    assert report["max_modulus"] == 11113 > 10 * 1000
    assert main(["verify", str(tmp_path / "system.json"), "--out", str(tmp_path / "v.json")]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["covered"] is True


@pytest.mark.parametrize("option, value", [("--c", "0.3"), ("--c", "1e307")])
def test_construct_bad_budget_or_scale_is_usage_error(tmp_path, capsys, option, value):
    # --c 0.3 gives y = 91 <= x = 100; --c 1e307 is finite but its y
    # overflows to infinity
    assert main(["construct", "100", option, value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{option} " in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "system.json").exists()


def test_verify_interval_beyond_memory_is_infeasible(tmp_path, capsys):
    # 10^16 positions need 8.88 PiB of bits, more than any address space,
    # so the allocation fails before a page is touched
    f = tmp_path / "w.json"
    write_system_file(f, 7, exact_Y(7).witness)
    assert main(["verify", str(f), "--interval", "1", str(10**16)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("infeasible:") and len(err.strip().splitlines()) == 1


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
