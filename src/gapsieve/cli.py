"""Command-line interface: construct, verify, gap, oracle, nibble-bench, weights.

Every run is reproducible from its master seed: outputs are byte-identical
across repeated invocations.  Exit codes: 0 success, 2 usage error or an
unreadable or invalid input file, 3 verification failure, 4 infeasible
or out of memory.
"""

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from . import nibble as nib
from .oracle import EXACT_Y_CUTOFF, exact_Y, jacobsthal
from .pipeline import StagedConfig, VerificationError, run_pipeline
from .primes import admissible_tuple, primorial, sieve_interval
from .residues import (
    CoverageError,
    InfeasibleError,
    assemble_gap,
    covered_prefix_length,
    read_system_file,
    sift,
    system_to_json,
    write_system_file,
)
from .rng import stream_seed
from .weights import FormSystem, WeightSystem, cap_integrals, tau_u

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INFEASIBLE = 4

GAP_SCAN_LIMIT = 10**8


def _manifest(command: str, config: dict) -> dict:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "tool": "gapsieve",
        "version": __version__,
        "command": command,
        "config": config,
        "input_hash": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def _dump(doc: dict, path=None) -> None:
    text = json.dumps(doc, sort_keys=False, separators=(",", ":")) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    cfg = StagedConfig(
        x=args.x,
        c=args.c,
        mode=args.mode,
        seed=args.seed,
        stage3_method=args.stage3,
        weights=args.weights,
    )
    report, system = run_pipeline(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    system_path = out / "system.json"
    written = write_system_file(system_path, cfg.x, system, (cfg.x + 1, report.achieved_y))
    manifest = _manifest(
        "construct",
        {
            "x": cfg.x,
            "c": cfg.c,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "stage3": cfg.stage3_method,
            "weights": cfg.weights,
        },
    )
    manifest["system_sha256"] = hashlib.sha256(written).hexdigest()
    doc = {"manifest": manifest, "report": report.__dict__}
    _dump(doc, out / "report.json")
    print(f"wrote {system_path} and {out / 'report.json'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    x, system, claimed = read_system_file(args.system)
    if args.interval:
        lo, hi = args.interval
    elif claimed is not None:
        lo, hi = claimed
    else:
        lo, hi = 1, max(covered_prefix_length(system), 1)
    res = sift(system, lo, hi)
    first = res.first_survivor()
    doc = {
        "manifest": _manifest("verify", {"system": str(args.system), "lo": lo, "hi": hi}),
        "x": x,
        "interval": [lo, hi],
        "survivors": res.count(),
        "first_uncovered": first,
        "covered": first is None,
    }
    _dump(doc, args.out)
    if first is not None:
        print(f"uncovered position: {first}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_gap(args) -> int:
    x, system, _ = read_system_file(args.system)
    cert = assemble_gap(system, x)
    doc = {
        "manifest": _manifest("gap", {"system": str(args.system), "x": x}),
        "x": x,
        "m": cert.m,
        "run_length": cert.run_length,
    }
    # at least b primes lie below b*b and their product is at least
    # 2**b > GAP_SCAN_LIMIT, so primorial(min(x, b*b)) passes the limit
    # whenever primorial(x) does, and equals it otherwise
    b = GAP_SCAN_LIMIT.bit_length()
    if primorial(min(x, b * b)) > GAP_SCAN_LIMIT:
        doc["gap_scan"] = f"skipped: primorial({x}) exceeds {GAP_SCAN_LIMIT}"
    elif cert.m < 2:
        doc["gap_scan"] = f"skipped: no prime <= m = {cert.m}"
    else:
        window = 2 * max(cert.run_length, 10)
        below = above = None
        while below is None or above is None:
            lo_scan = max(2, cert.m - window)
            hi_scan = cert.m + window
            ps = [int(p) for p in sieve_interval(lo_scan, hi_scan)]
            lower = [p for p in ps if p <= cert.m]
            upper = [p for p in ps if p > cert.m + cert.run_length]
            below = lower[-1] if lower else None
            above = upper[0] if upper else None
            window *= 2
        gap_len = above - below
        doc["enclosing_gap"] = [below, above]
        doc["enclosing_gap_length"] = gap_len
        doc["gap_at_least_run"] = gap_len >= cert.run_length + (1 if cert.run_length else 0)
    _dump(doc, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    # the period scan runs first: it refuses a period beyond its cutoff at
    # once, before the exhaustive search has spent any time
    jac = jacobsthal(primorial(args.x)) if args.cross_check else None
    res = exact_Y(args.x, cutoff=args.cutoff)
    doc = {
        "manifest": _manifest("oracle", {"x": args.x}),
        "x": args.x,
        "Y": res.Y,
        "nodes_explored": res.nodes_explored,
    }
    if args.witness:
        text = system_to_json(args.x, res.witness, (1, res.Y) if res.Y else None)
        Path(args.witness).write_text(text)
        doc["witness_file"] = str(args.witness)
        doc["witness_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    if args.cross_check:
        doc["jacobsthal_primorial"] = jac
        doc["cross_check_ok"] = doc["jacobsthal_primorial"] - 1 == res.Y
    _dump(doc, args.out)
    return EXIT_OK


def cmd_nibble_bench(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    inst = nib.instance_from_json(Path(args.instance).read_text())
    lines = ["seed,leftover,edges_used"]
    for seed in range(args.seeds):
        result = nib.run_cover(inst, stream_seed(seed, "nibble-bench"), tol=args.tol)
        used = int((result.rows >= 0).any(axis=1).sum())
        lines.append(f"{seed},{len(result.leftover)},{used}")
        if seed == 0:
            stats_run = result
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.stats:
        Path(args.stats).write_text(nib.stats_to_csv(stats_run.stats))
    return EXIT_OK


def cmd_weights(args) -> int:
    offsets = admissible_tuple(args.k)
    system = FormSystem(offsets, B=args.B)
    ws = WeightSystem(system, R=args.R)
    doc = {
        "manifest": _manifest("weights", {"k": args.k, "R": args.R, "x": args.x, "B": args.B}),
        "k": args.k,
        "offsets": list(offsets),
        "R": args.R,
        "singular_series": ws.S,
        "table_size": len(ws.table),
    }
    tau, u = tau_u(ws, args.x)
    doc["I_k"], doc["J_k"] = cap_integrals(args.k)
    doc["tau_F_relative"] = tau
    doc["u_F_relative"] = u
    if args.dump:
        table_doc = {
            "k": args.k,
            "forms": [[1, h] for h in offsets],
            "B": args.B,
            "R": args.R,
            "lambda": [[list(d), val] for d, val in sorted(ws.table.items())],
        }
        text = json.dumps(table_doc, sort_keys=False, separators=(",", ":")) + "\n"
        Path(args.dump).write_text(text)
        doc["dump_file"] = str(args.dump)
        doc["dump_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    _dump(doc, args.out)
    return EXIT_OK


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gapsieve",
        description="Covering systems of residue classes for long composite runs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the staged pipeline and save the system")
    p.add_argument("x", type=int)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--mode", choices=["desk-preset", "paper-formula"], default="desk-preset")
    p.add_argument("--stage3", choices=["independent", "greedy", "nibble", "none"],
                   default="nibble")
    p.add_argument("--weights", choices=["uniform", "sieve"], default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="gapsieve-out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a residue-system file covers an interval")
    p.add_argument("system")
    p.add_argument("--interval", nargs=2, type=int, metavar=("LO", "HI"),
                   help="default: the file's recorded interval, else its covered prefix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gap", help="assemble the composite run a system certifies")
    p.add_argument("system")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("oracle", help="exact longest coverable prefix for primes <= x")
    p.add_argument("x", type=int)
    p.add_argument("--cutoff", type=int, default=EXACT_Y_CUTOFF)
    p.add_argument("--witness", help="write the witness system to this file")
    p.add_argument("--cross-check", action="store_true",
                   help="also scan one primorial period for the coprime-gap value")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("nibble-bench", help="run the covering engine over many seeds")
    p.add_argument("instance")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")
    p.add_argument("--stats", help="per-round stats CSV for seed 0")
    p.set_defaults(func=cmd_nibble_bench)

    p = sub.add_parser("weights", help="build a sieve-weight table and diagnostics")
    p.add_argument("k", type=int)
    p.add_argument("R", type=float)
    p.add_argument("x", type=int)
    p.add_argument("--B", type=int, default=1)
    p.add_argument("--dump", help="write the lambda table to this file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_weights)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, MemoryError) as exc:
        print(f"infeasible: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (VerificationError, CoverageError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
