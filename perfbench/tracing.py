"""Span tracing of gapsieve's layers from outside the package.

`install_layer_spans` wraps the public functions of every layer and rebinds
each wrapper in all gapsieve namespaces that hold the original (so
`gapsieve.pipeline.sift` and `gapsieve.residues.sift` both go through it);
methods are wrapped on their class.  Each call records a span
(name, start, end, parent) in flat arrays; self times are computed from them
after the run.  Nothing under src/ is modified, and `uninstall` restores
every original binding.
"""

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.span_names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = defaultdict(float)
        self.captured = []  # (span name, first argument, result) for post-op analysis

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_call=None, capture=False):
        """A wrapper of fn that records one span per call.

        on_call(counters, args, kwargs, result) updates counters cheaply;
        capture keeps the result for analysis after the operation's timing.
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack)
        counters, captured = self.counters, self.captured

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_call is not None:
                on_call(counters, args, kwargs, result)
            if capture:
                captured.append((name, args[0], result))
            return result

        return wrapper

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.span_names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            nm: (int(calls[i]), float(total[i]), float(own[i]))
            for i, nm in enumerate(self.span_names)
        }


class Patches:
    """Attribute rebinding that can be undone."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind_everywhere(self, original, wrapper):
        """Replace `original` in every gapsieve module namespace holding it."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gapsieve" or modname.startswith("gapsieve.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere in gapsieve")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- counters gathered inside spans (cheap, no allocation beyond floats) ------


def _count_sift(c, args, kwargs, result):
    c["sift_positions"] += result.hi - result.lo + 1


def _count_exact_Y(c, args, kwargs, result):
    c["exact_Y_nodes"] += result.nodes_explored


def _count_jacobsthal(c, args, kwargs, result):
    c["jacobsthal_positions"] += args[0] + 1


def _count_round(c, args, kwargs, result):
    inst, j = args[0], args[3]
    c["round_indices"] += len(inst.rounds[j - 1])


def _count_weight(c, args, kwargs, result):
    if result > 0:
        c["weight_nonzero"] += 1


def _count_matching(c, args, kwargs, result):
    c["fresh_primes_used"] += len(result)


def install_layer_spans(tracer):
    """Wrap each layer's public entry points; returns the Patches to undo."""
    import gapsieve.cli as cli
    import gapsieve.nibble as nibble
    import gapsieve.oracle as oracle
    import gapsieve.pipeline as pipeline
    import gapsieve.primes as primes
    import gapsieve.residues as residues
    import gapsieve.weights as weights

    patches = Patches()

    def func(name, module, attr, **kw):
        original = getattr(module, attr)
        patches.rebind_everywhere(original, tracer.wrap(name, original, **kw))

    def method(name, cls, attr, **kw):
        patches.set(cls, attr, tracer.wrap(name, cls.__dict__[attr], **kw))

    func("primes.sieve_interval", primes, "sieve_interval")
    func("primes.primes_up_to", primes, "primes_up_to")
    func("primes.is_prime", primes, "is_prime")

    method("residues.system_init", residues.ResidueSystem, "__post_init__")
    method("residues.merged", residues.ResidueSystem, "merged")
    func("residues.sift", residues, "sift", on_call=_count_sift)
    func("residues.assemble_gap", residues, "assemble_gap")
    func("residues.system_to_json", residues, "system_to_json")
    func("residues.write_system_file", residues, "write_system_file")
    func("residues.read_system_file", residues, "read_system_file")

    func("oracle.exact_Y", oracle, "exact_Y", on_call=_count_exact_Y)
    func("oracle.jacobsthal", oracle, "jacobsthal", on_call=_count_jacobsthal)

    func("nibble.run_cover", nibble, "run_cover", capture=True)
    func("nibble.nibble_round", nibble, "nibble_round", on_call=_count_round)
    func("nibble.degree_profile", nibble, "degree_profile")
    method("nibble.validate", nibble.CoverInstance, "validate")

    func("pipeline.run_pipeline", pipeline, "run_pipeline")
    func("pipeline.stage1", pipeline, "stage1_zero_classes")
    func("pipeline.stage2", pipeline, "stage2_random_small")
    func("pipeline.split", pipeline, "survivors_after_small")
    func("pipeline.edge_build", pipeline, "build_edge_distributions", capture=True)
    func("pipeline.select", pipeline, "stage3_select")
    func("pipeline.match", pipeline, "final_matching", on_call=_count_matching)

    method("weights.context_init", weights.PairWeightContext, "__init__")
    method("weights.system_build", weights.WeightSystem, "__init__")
    method("weights.sum_over_support", weights.PairWeightContext, "sum_over_support")
    method("weights.weight", weights.PairWeightContext, "weight", on_call=_count_weight)

    func("cli.main", cli, "main")
    return patches


@contextlib.contextmanager
def traced(tracer):
    """Layer spans installed for the body; captures absorbed on exit."""
    patches = install_layer_spans(tracer)
    try:
        yield
    finally:
        patches.uninstall()
        absorb_captures(tracer)


def absorb_captures(tracer):
    """Fold captured results into counters, outside any timed region."""
    c = tracer.counters
    for name, first_arg, result in tracer.captured:
        if name == "nibble.run_cover":
            c["cover_runs"] += 1
            c["drift_checks"] += len(result.stats)
            c["drift_passed"] += sum(1 for s in result.stats if s.passed)
            c["leftover_frac_sum"] += len(result.leftover) / max(first_arg.n_vertices, 1)
        elif name == "pipeline.edge_build":
            c["skipped_primes"] += len(result.skipped_primes)
            for dist in result.cover.dist.values():
                for edge, _ in dist.atoms:
                    c["edge_atoms"] += 1
                    if len(edge) > 1:
                        c["multi_atoms"] += 1
                    if len(edge) > c["edge_size_max"]:
                        c["edge_size_max"] = len(edge)
    tracer.captured.clear()


def layer_metrics(tracer, n_ops, facts):
    """Per-layer metrics per traced operation.

    facts: counts taken from the checked outputs of the traced operations
    (`moduli`, the summed size of the final systems, and
    `max_modulus_ratio_sum` with `construct_ops`).
    """
    s = tracer.summary()
    c = tracer.counters
    ops = max(n_ops, 1)

    def calls(*names):
        return sum(s.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(s.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(s.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    sift_s = own("residues.sift")
    exact_s = total("oracle.exact_Y")
    jac_s = total("oracle.jacobsthal")
    construct_ops = facts.get("construct_ops", 0)
    m = {
        "primes.sieve_s": own("primes.sieve_interval", "primes.primes_up_to") / ops,
        "primes.sieve_calls": calls("primes.sieve_interval") / ops,
        "primes.is_prime_s": own("primes.is_prime") / ops,
        "primes.is_prime_calls": calls("primes.is_prime") / ops,
        "residues.system_s": own("residues.system_init", "residues.merged") / ops,
        "residues.validate_ratio": ratio(
            calls("primes.is_prime") if construct_ops else 0, facts.get("moduli", 0)),
        "residues.sift_s": sift_s / ops,
        "residues.sift_calls": calls("residues.sift") / ops,
        "residues.sift_mpos_per_s": ratio(c["sift_positions"] / 1e6, sift_s),
        "residues.io_s": own("residues.write_system_file", "residues.read_system_file",
                             "residues.system_to_json") / ops,
        "residues.assemble_gap_s": total("residues.assemble_gap") / ops,
        "oracle.exact_Y_s": exact_s / ops,
        "oracle.exact_Y_nodes": c["exact_Y_nodes"] / ops,
        "oracle.nodes_per_s": ratio(c["exact_Y_nodes"], exact_s),
        "oracle.jacobsthal_s": jac_s / ops,
        "oracle.jacobsthal_mpos_per_s": ratio(c["jacobsthal_positions"] / 1e6, jac_s),
        "nibble.run_cover_s": total("nibble.run_cover") / ops,
        "nibble.round_us_per_index": ratio(total("nibble.nibble_round") * 1e6,
                                           c["round_indices"]),
        "nibble.profile_s": total("nibble.degree_profile") / ops,
        "nibble.validate_s": total("nibble.validate") / ops,
        "nibble.drift_pass_frac": ratio(c["drift_passed"], c["drift_checks"]),
        "nibble.leftover_frac": ratio(c["leftover_frac_sum"], c["cover_runs"]),
        "pipeline.stage12_s": own("pipeline.stage1", "pipeline.stage2") / ops,
        "pipeline.split_s": own("pipeline.split") / ops,
        "pipeline.match_s": own("pipeline.match") / ops,
        "pipeline.edge_build_s": own("pipeline.edge_build") / ops,
        "pipeline.select_s": own("pipeline.select") / ops,
        "pipeline.edge_atoms": c["edge_atoms"] / ops,
        "pipeline.multi_atom_frac": ratio(c["multi_atoms"], c["edge_atoms"]),
        "pipeline.edge_size_max": c["edge_size_max"],
        "pipeline.skipped_primes": c["skipped_primes"] / ops,
        "pipeline.fresh_primes_used": c["fresh_primes_used"] / ops,
        "pipeline.max_modulus_ratio": ratio(facts.get("max_modulus_ratio_sum", 0.0),
                                            construct_ops),
        "weights.context_s": own("weights.context_init", "weights.system_build",
                                 "weights.sum_over_support") / ops,
        "weights.systems_built": calls("weights.system_build") / ops,
        "weights.weight_calls": calls("weights.weight") / ops,
        "weights.weight_s": own("weights.weight") / ops,
        "weights.nonzero_frac": ratio(c["weight_nonzero"], calls("weights.weight")),
        "cli.output_s": own("cli.main") / ops,
    }
    return m, s
