"""One benchmark process for one workload (started by run.py).

The process imports gapsieve from the checkout's src/, builds its operation
plan from the workload seed, and reports the monotonic time at which set-up
ended.  With --setup-only it stops there.  Otherwise it runs operations in a
closed loop (one client; the next operation starts when the previous one and
its output check have finished) for --seconds, then runs the untimed
round-trip probe, and prints one JSON line with everything it measured.

With --trace 1 every plan entry runs twice, back to back: untraced, then
with the layer spans of tracing.py installed.

Output checks share no code with gapsieve: primality, coverage and the
coprime-gap scan are computed here with numpy.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from math import isqrt
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PLAN_LENGTH = 10_000
ORACLE_XS = (13, 17)
JACOBSTHAL_X = 19
PROBE_X = 1000  # the round-trip defects do not depend on x; 1e6 would add ~11 s
CALIBRATION_LOOPS = 100_000  # with the array below, one calibration takes about 20 ms
CALIBRATION_ARRAY = np.arange(30_000, dtype=np.int64)
SAMPLE_EVERY_S = 0.25


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


# -- independent reference computations ---------------------------------------


def prime_flags(limit):
    """flags[k] is True iff k is prime, for 0 <= k <= limit."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for k in range(2, isqrt(limit) + 1):
        if flags[k]:
            flags[k * k :: k] = False
    return flags


def uncovered_positions(lo, hi, moduli, residues):
    """Integers n in [lo, hi] with n mod p != a for every class (p, a)."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    starts = (residues - lo) % moduli
    for p, s in zip(moduli.tolist(), starts.tolist()):
        flags[s::p] = False
    return np.flatnonzero(flags) + lo


def coprime_gap(primes):
    """Largest gap between integers coprime to prod(primes), over one period."""
    n = 1
    for p in primes:
        n *= p
    flags = np.ones(n + 2, dtype=bool)  # positions 0 .. n + 1
    for p in primes:
        flags[::p] = False
    return int(np.diff(np.flatnonzero(flags)).max())


def primes_through(x):
    return [int(p) for p in np.flatnonzero(prime_flags(x))]


def load_classes(text):
    doc = json.loads(text)
    classes = np.asarray(doc["classes"], dtype=np.int64).reshape(-1, 2)
    return int(doc["x"]), classes[:, 0], classes[:, 1]


def check_classes(moduli, residues, bound=None):
    """Moduli strictly increasing primes (<= bound if given), residues in range."""
    expect(len(moduli) > 0, "empty system")
    expect(bool(np.all(np.diff(moduli) > 0)), "moduli not strictly increasing")
    expect(int(moduli[0]) >= 2, "modulus below 2")
    if bound is not None:
        expect(int(moduli[-1]) <= bound, f"modulus {int(moduli[-1])} above {bound}")
    expect(bool(prime_flags(int(moduli[-1]))[moduli].all()), "a modulus is not prime")
    expect(bool(np.all((residues >= 0) & (residues < moduli))), "a residue is out of range")


def calibrate():
    """Wall time of a fixed piece of pure-Python work: the host's speed right now.

    The host is shared, and its speed drifts by a quarter over minutes; an
    operation's time divided by this one moves far less (see README.md).
    About half is integer arithmetic, the rest iteration over a numpy array,
    which makes a numpy scalar per element as `oracle.jacobsthal` does.  Neither
    part keeps anything, so the time neither depends on nor adds to the heap
    of the operation it samples.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    for v in CALIBRATION_ARRAY:
        acc = max(acc, int(v))
    return time.perf_counter() - t0


class HostSpeed:
    """Times the calibration three times before and after an operation and,
    if `sampling`, once every SAMPLE_EVERY_S while it runs.

    A SIGALRM handler runs it in the operation's own thread, so the
    samples cover the whole operation, not only its ends; `paused` is the
    time the handler took, which the operation's time leaves out.  The traced
    run does not sample, so that no span holds handler time.
    """

    def __init__(self, sampling):
        self.sampling = sampling

    def __enter__(self):
        self.samples = [calibrate() for _ in range(3)]
        self.paused = 0.0
        if self.sampling:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - t0

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.extend(calibrate() for _ in range(3))
        return False

    def ref_s(self):
        return statistics.fmean(self.samples)


# -- workloads ----------------------------------------------------------------


def op_seed(workload, seed, k):
    """Seed of the k-th distinct operation, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def plan_keys():
    """Distinct-input index of each operation: the first input runs twice in a
    row so that every run checks byte-identical repeats."""
    return [0] + list(range(PLAN_LENGTH - 1))


class Construct:
    """`gapsieve construct X ...`, one derived seed per operation."""

    def __init__(self, x, flags):
        self.x = x
        self.flags = flags
        self.seen = {}  # seed -> sha256 of (system.json, report.json)

    def run(self, gs, seed, out):
        argv = ["construct", str(self.x), *self.flags, "--seed", str(seed), "--out", str(out)]
        return {"rc": gs.cli.main(argv), "out": out}

    def check(self, res, seed):
        expect(res["rc"] == 0, f"construct exit code {res['rc']}")
        sys_bytes = (res["out"] / "system.json").read_bytes()
        rep_bytes = (res["out"] / "report.json").read_bytes()
        digests = (hashlib.sha256(sys_bytes).hexdigest(), hashlib.sha256(rep_bytes).hexdigest())
        if seed in self.seen:
            expect(self.seen[seed] == digests, "repeated (x, seed) gave different bytes")
        self.seen[seed] = digests

        doc = json.loads(rep_bytes)
        rep = doc["report"]
        expect(doc["manifest"]["system_sha256"] == digests[0], "system_sha256 mismatch")
        x, moduli, residues = load_classes(sys_bytes)
        expect(x == self.x and rep["x"] == self.x, "x differs from the request")
        expect(rep["seed"] == seed, "report seed differs from the request")
        check_classes(moduli, residues)
        y = int(rep["achieved_y"])
        expect(y > x, "achieved_y not above x")
        left = uncovered_positions(x + 1, y, moduli, residues)
        expect(len(left) == 0, f"{len(left)} integers of (x, y] uncovered, first {left[:1]}")
        return {
            "moduli": len(moduli),
            "max_modulus_ratio": int(moduli[-1]) / x,
            "residual_frac": rep["residual_after_stage3"] / rep["survivors_after_stage12"],
        }


class OracleRoundtrip:
    """Both exact oracles, the witness file round trip and CRT assembly."""

    def __init__(self):
        self.reference = None

    def run(self, gs, seed, out):
        out.mkdir(parents=True, exist_ok=True)
        steps = []
        for x in ORACLE_XS:
            w, o, v, g = (out / f"{stem}{x}.json" for stem in ("witness", "oracle", "verify", "gap"))
            rc_o = gs.cli.main(["oracle", str(x), "--cross-check", "--witness", str(w),
                                "--out", str(o)])
            y = json.loads(o.read_text())["Y"]
            rc_v = gs.cli.main(["verify", str(w), "--interval", "1", str(y), "--out", str(v)])
            rc_g = gs.cli.main(["gap", str(w), "--out", str(g)])
            steps.append((x, (rc_o, rc_v, rc_g), w, o, v, g))
        jac = gs.oracle.jacobsthal(gs.primes.primorial(JACOBSTHAL_X))
        return {"steps": steps, "jacobsthal": jac}

    def check(self, res, seed):
        if self.reference is None:
            self.reference = {
                x: coprime_gap(primes_through(x)) for x in (*ORACLE_XS, JACOBSTHAL_X)
            }
        for x, rcs, w, o, v, g in res["steps"]:
            expect(rcs == (0, 0, 0), f"x={x}: exit codes {rcs}")
            odoc = json.loads(o.read_text())
            y = odoc["Y"]
            expect(odoc["cross_check_ok"] is True, f"x={x}: cross_check_ok is not true")
            expect(y == self.reference[x] - 1, f"x={x}: Y={y}, reference {self.reference[x] - 1}")
            wx, moduli, residues = load_classes(w.read_text())
            expect(wx == x, f"x={x}: witness file records x={wx}")
            check_classes(moduli, residues, bound=x)
            expect(len(uncovered_positions(1, y, moduli, residues)) == 0,
                   f"x={x}: witness leaves part of [1, Y] uncovered")
            vdoc = json.loads(v.read_text())
            expect(vdoc["covered"] is True and vdoc["interval"] == [1, y],
                   f"x={x}: verify did not report [1, Y] covered")
            gdoc = json.loads(g.read_text())
            expect(gdoc["run_length"] == y, f"x={x}: run_length {gdoc['run_length']} != Y {y}")
            m = gdoc["m"]
            for t in range(1, y + 1):
                n = m + t
                expect(any(n % p == 0 and n > p for p in moduli.tolist()),
                       f"x={x}: no witness divides m + {t}")
            expect(gdoc.get("gap_at_least_run") is True, f"x={x}: enclosing gap too short")
        expect(res["jacobsthal"] == self.reference[JACOBSTHAL_X],
               f"jacobsthal(primorial({JACOBSTHAL_X})) = {res['jacobsthal']}, "
               f"reference {self.reference[JACOBSTHAL_X]}")
        return {}


WORKLOADS = {
    # At these sizes paper-formula mode has no random stage-2 classes, so every
    # seed builds the same stage-3 instance and only the stage-3 draws differ.
    # In desk-preset mode a seed that draws class 0 mod 3 doubles the surviving
    # primes: one construct 10000 takes 3-15 s depending on the seed.
    "stage3-nibble": lambda: Construct(3000, ["--mode", "paper-formula"]),
    "bulk-1e6": lambda: Construct(1_000_000, ["--stage3", "none"]),
    "sieve-weights": lambda: Construct(
        2000, ["--mode", "paper-formula", "--weights", "sieve", "--stage3", "independent"]),
    "oracle-roundtrip": OracleRoundtrip,
}


# -- running ------------------------------------------------------------------


def import_gapsieve():
    """The checkout's gapsieve package, with the submodules the workloads call.

    Callers look functions up on the modules at call time, so trace wrappers
    rebound there take effect.
    """
    if not (SRC / "gapsieve" / "__init__.py").is_file():
        sys.exit(f"gapsieve sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gapsieve
    import gapsieve.cli  # noqa: F401  (imports the oracle and primes modules too)

    if Path(gapsieve.__file__).resolve().parent != (SRC / "gapsieve").resolve():
        sys.exit(f"imported gapsieve from {gapsieve.__file__}, not from {SRC}")
    return gapsieve


def run_loop(workload, gs, seeds, seconds, scratch, arms, sampling):
    """Closed loop over the plan for `seconds`; returns one record per operation.

    arms: (name, context factory) pairs; every plan entry runs once under
    each arm in turn, and only the operation itself is timed; HostSpeed
    measures the host's speed around it and, if `sampling`, during it.  At
    least two operations run, so the repeated first input is always checked.
    """
    records = []
    min_entries = 2 // len(arms)
    t_start = time.monotonic()
    for i, seed in enumerate(seeds):
        if i >= min_entries and time.monotonic() - t_start >= seconds:
            break
        for arm, context in arms:
            out = scratch / f"{arm}-{i}"
            record = {"i": i, "seed": seed, "arm": arm, "s": None}
            captured = io.StringIO()
            try:
                with HostSpeed(sampling) as host, contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured), context():
                    t0 = time.perf_counter()
                    res = workload.run(gs, seed, out)
                    record["s"] = time.perf_counter() - t0 - host.paused
                record["ref_s"] = host.ref_s()
                record["rss_mib"] = peak_rss_mib()
                record.update(workload.check(res, seed))
                record["ok"] = True
            except CheckFailed as exc:
                record.update(ok=False, why=str(exc))
            except Exception:  # an operation that crashes counts as failed, the loop goes on
                record.update(ok=False, why=traceback.format_exc(limit=3)[-600:])
            if not record["ok"]:
                record["stderr"] = captured.getvalue()[-400:]
            records.append(record)
            shutil.rmtree(out, ignore_errors=True)
    return records


def roundtrip_probe(gs, seed, scratch):
    """Untimed: `gap` and default `verify` on a fresh construct output.

    Counts the commands that fail the round trip: `gap` must exit 0 on what
    `construct` wrote, and `verify` without --interval must check (x, y].
    """
    source = scratch / "probe"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = gs.cli.main(["construct", str(PROBE_X), "--stage3", "none", "--seed", str(seed),
                          "--out", str(source)])
        if rc != 0:
            return {"failures": 2, "why": f"probe construct exit {rc}: {sink.getvalue()[-400:]}"}
        rep = json.loads((source / "report.json").read_text())["report"]
        want = [rep["x"] + 1, rep["achieved_y"]]
        result = {"x": rep["x"], "expected_interval": want}
        failures = 0
        try:
            rc = gs.cli.main(["gap", str(source / "system.json"),
                              "--out", str(scratch / "probe-gap.json")])
            result["gap"] = f"exit {rc}"
        except Exception as exc:  # the known defect raises; record what it raised
            rc = None
            result["gap"] = f"raised {type(exc).__name__}: {exc}"
        failures += rc != 0
        try:
            rc = gs.cli.main(["verify", str(source / "system.json"),
                              "--out", str(scratch / "probe-verify.json")])
            interval = json.loads((scratch / "probe-verify.json").read_text())["interval"]
            result["verify"] = {"exit": rc, "interval": interval}
            failures += rc != 0 or interval != want
        except Exception as exc:
            result["verify"] = f"raised {type(exc).__name__}: {exc}"
            failures += 1
    result["failures"] = failures
    return result


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gs = import_gapsieve()
    workload = WORKLOADS[args.workload]()
    seeds = [op_seed(args.workload, args.seed, k) for k in plan_keys()]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ref_s": statistics.fmean(calibrate() for _ in range(6))}))
        return 0

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    out = {"ready": ready}
    if not args.trace:
        ops = run_loop(workload, gs, seeds, args.seconds, scratch,
                       [("plain", contextlib.nullcontext)], sampling=True)
        # after a fixed number of operations, so the figure does not depend
        # on how many fit in the run (memory that leaks per operation grows it)
        out["peak_rss_mib"] = ops[1].get("rss_mib") or peak_rss_mib()
    else:
        import tracing

        tracer = tracing.Tracer()
        ops = run_loop(workload, gs, seeds, args.seconds, scratch,
                       [("plain", contextlib.nullcontext),
                        ("traced", lambda: tracing.traced(tracer))], sampling=False)
        good = [r for r in ops if r["arm"] == "traced" and r["ok"] and "moduli" in r]
        facts = {
            "construct_ops": len(good),
            "moduli": sum(r["moduli"] for r in good),
            "max_modulus_ratio_sum": sum(r["max_modulus_ratio"] for r in good),
        }
        n_traced = sum(1 for r in ops if r["arm"] == "traced")
        layers, spans = tracing.layer_metrics(tracer, n_traced, facts)
        out.update(layers=layers, spans={k: list(v) for k, v in spans.items()})
    out["ops"] = ops
    out["probe"] = roundtrip_probe(gs, seeds[0], scratch)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
