"""gapsieve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The launcher starts fresh
interpreters one after another, each running perfbench/worker.py on the
checkout's src/: set-up-only ones to time set-up, then the one process that
runs the workload's closed loop.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it holds the details (operation seeds and times, set-up samples,
round-trip probe, span summary).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  Metric definitions and the layer-to-workload table
are in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = HERE / ".work"

WORKLOADS = ("stage3-nibble", "bulk-1e6", "oracle-roundtrip", "sieve-weights")
SETUP_SAMPLES = 5  # fresh interpreters timed per run, the workload process included
NOMINAL_REF_S = 0.02  # calibration time of the nominal host that times are scaled to
DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline):
    """Run one worker to completion; returns its JSON line plus its set-up time."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("worker exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(lines[-1])
    doc["setup_s"] = doc["ready"] - t0
    return doc


def median(values):
    return statistics.median(values) if values else 0.0


def with_units(values, kind):
    """Attach the units BENCHMARK.json declares; the metric sets must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} mismatch: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def host_scaled(seconds, ref_s):
    """A wall time rescaled to a host that runs the calibration in NOMINAL_REF_S."""
    return seconds * NOMINAL_REF_S / ref_s


def end_to_end(ops, setup_samples, peak_rss):
    scaled = [host_scaled(r["s"], r["ref_s"]) for r in ops if r["s"] is not None]
    ok = sum(1 for r in ops if r["ok"])
    residual = [r["residual_frac"] for r in ops if r["ok"] and "residual_frac" in r]
    return {
        "op_norm_s": median(scaled),
        "setup_s": median([host_scaled(s, ref) for s, ref in setup_samples]),
        "peak_rss_mib": peak_rss,
        # workloads without stage 3 report 1.0: stage 3 removed nothing
        "residual_frac": statistics.fmean(residual) if residual else 1.0,
        "ok_frac": ok / len(ops),
    }


def per_layer(doc):
    times = {}
    for r in doc["ops"]:
        if r["s"] is not None:
            times.setdefault(r["i"], {})[r["arm"]] = r["s"]
    ratios = [t["traced"] / t["plain"] for t in times.values() if len(t) == 2]
    values = dict(doc["layers"])
    values["cli.roundtrip_failures"] = doc["probe"]["failures"]
    # each plan entry ran untraced and then traced, back to back
    values["trace.overhead_frac"] = median(ratios) - 1 if ratios else 0.0
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gapsieve" / "__init__.py").is_file():
        print(f"no gapsieve sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    scratch = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = spawn([*common, "--scratch", str(scratch), "--setup-only"], deadline)
                setup.append((probe["setup_s"], probe["ref_s"]))
        doc = spawn([*common, "--scratch", str(scratch)], deadline)
        refs = [r["ref_s"] for r in doc["ops"] if "ref_s" in r]
        setup.append((doc["setup_s"], median(refs)))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = doc["ops"]
    failed = [r for r in ops if not r["ok"]]
    if args.trace:
        metrics = with_units(per_layer(doc), "per_layer")
    else:
        metrics = with_units(end_to_end(ops, setup, doc["peak_rss_mib"]), "end_to_end")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": ops,
        "setup_samples_s": [s for s, _ in setup],
        "setup_ref_s": [ref for _, ref in setup],
        "probe": doc["probe"],
        "spans": doc.get("spans", {}),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
