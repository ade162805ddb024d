"""Benchmark of the ``antipodal`` library, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload search-wide --seed 1 --seconds 30 --trace 0

One process, one thread, the standard library only, with ``src/`` on the
path.  The run sets up (imports, inputs, files, warm-up) several times,
spread over the run, and reports the median; it runs whole passes over the
workload's operations until ``--seconds`` of pass time have gone by, and
checks every output with the independent checkers in ``checkers.py`` or the
verdict table ``verdicts.json``.  A fixed reference loop, timed between
operations, gives the machine's speed at each operation; ``wall_ref`` is a
pass in units of that loop (README.md).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the library's public
functions are wrapped (``tracing.py``) and the metrics are per module.  A
fuller record of each run (per-kind times, every per-function figure) goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import types

import selftest
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MODULES = ("structures", "membership", "completion", "valuations", "extension",
           "generation", "fileformat", "cli")
SETUPS_FIRST = 3    # set-ups before the first pass
SETUPS_BETWEEN = 2  # timed set-ups after each pass, spread over the run

# The reference loop's input: labels 1..5 on the pairs of 24 vertices.
REF_VERTICES = tuple(range(24))
_ref_rng = random.Random(0)
REF_LABELS = {frozenset((u, v)): _ref_rng.randint(1, 5)
              for u in REF_VERTICES for v in REF_VERTICES if u < v}

# Per-kind pass times, written to the run record.
KINDS = ("search_found", "search_none", "validate", "fold", "expand", "extend", "gen",
         "complete_dense", "complete_sparse")

# Per-layer metrics reported with --trace 1.  Times are kept only for
# functions that every workload calls; see README.md.
PER_LAYER = [
    "structures.dist.calls",
    "structures.automorphisms.calls",
    "structures.automorphisms.returned",
    "structures.partial_automorphisms.yielded",
    "membership.is_forbidden_triangle.calls",
    "membership.is_member.calls",
    "membership.is_member.s",
    "membership.delta_matching.s",
    "membership.antipodal_closure.s",
    "membership.fold.calls",
    "membership.unfold.calls",
    "completion.antipodal_complete.calls",
    "completion.check_f_conditions.calls",
    "completion.forbidden_cycle_oracle.calls",
    "valuations.build_suitable_expansion.calls",
    "valuations.build_suitable_expansion.s",
    "valuations.is_suitable_expansion.calls",
    "valuations.pad_bipartition.s",
    "extension.witness_candidates.yielded",
    "extension.expand_witness.calls",
    "extension.expand_witness.found",
    "extension.expand_witness.found_ratio",
    "extension.verify_gamma.calls",
    "extension.verify_gamma.ok",
    "extension.verify_gamma.checked",
    "extension.verify_plain.calls",
    "extension.verify_plain.ok",
    "extension.verify_plain.checked",
    "extension.gamma_partial_automorphisms.yielded",
    "extension.compatible_language_parts.calls",
    "extension.compatible_language_parts.returned",
    "extension.language_parts_used_ratio",
    "extension.pipeline.calls",
    "extension.extend_partial_automorphism.calls",
    "generation.random_member.calls",
    "fileformat.read_structure_file.calls",
    "fileformat.write_structure_text.bytes",
    "cli.run.calls",
]


def fresh_import():
    """Import the library from scratch and return its modules by short name."""
    for name in [n for n in sys.modules if n == "antipodal" or n.startswith("antipodal.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(**{
        name: importlib.import_module("antipodal." + name) for name in MODULES})


def setup(workload: str, seed: int, workdir: str):
    """Imports, input construction, file writing and a warm-up search."""
    lib = fresh_import()
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    ops = workloads.build(lib, workload, seed, workdir)
    warm(lib)
    return lib, ops


def warm(lib):
    """One small call through the paths the passes take."""
    desc = lib.membership.ClassDescriptor(3, 1)
    quad = lib.structures.EdgeLabelledGraph(
        "abcd", 3, [("a", "b", 3), ("c", "d", 3), ("a", "c", 1), ("b", "d", 1),
                    ("a", "d", 2), ("b", "c", 2)])
    lib.extension.pipeline(quad, desc, "search", max_vertices=4)
    lib.cli.build_parser()


def reference_loop() -> int:
    """Fixed pure-Python work like the library's: frozenset-keyed label reads
    over the triangles of ``REF_LABELS``.  It takes about 2 ms; it never
    changes, so its time measures only the machine's speed at that moment."""
    labels, vs, count = REF_LABELS, REF_VERTICES, 0
    for u in vs:
        for v in vs:
            if u < v:
                a = labels[frozenset((u, v))]
                for w in vs:
                    if v < w:
                        total = a + labels[frozenset((v, w))] + labels[frozenset((u, w))]
                        if total % 2 and total > 7:
                            count += 1
    return count


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def run_pass(ops, tracer=None):
    """Time every op once, and the reference loop before the first op and after each.

    Returns per-op (seconds or None on an exception, result, reference seconds:
    the mean of the loop's times just before and just after the op).
    """
    out = []
    before = time_reference()
    for op in ops:
        idx = tracer.push(tracer.name_id("bench." + op.kind)) if tracer else None
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            result = exc
            elapsed = None
        else:
            elapsed = time.perf_counter() - start
        if tracer:
            tracer.pop(idx)
        after = time_reference()
        out.append((elapsed, result, (before + after) / 2))
        before = after
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "antipodal")):
        print(f"no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")

    try:
        setup_times = []

        def timed_setup():
            start = time.perf_counter()
            got = setup(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
            return got

        for _ in range(SETUPS_FIRST):
            lib, ops = timed_setup()
        problem = selftest.first_failure()
        if problem:
            print(f"checker self-test failed: {problem}", file=sys.stderr)
            return 3

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        op_passes, ref_passes, pass_walls, layer_passes, span_passes = [], [], [], [], []
        seen: dict[int, object] = {}
        attempted = failed = 0
        correct = True
        problems = []
        while not op_passes or sum(pass_walls) < args.seconds:
            start = time.perf_counter()
            timings = run_pass(ops, tracer)
            pass_walls.append(time.perf_counter() - start)
            op_passes.append([elapsed for elapsed, _, _ in timings])
            ref_passes.append([ref for _, _, ref in timings])
            if tracer:
                layer_passes.append(tracer.layer_stats())
                span_passes.append([list(s) for s in tracer.spans])
                tracer.reset()
            for i, (op, (elapsed, result, _)) in enumerate(zip(ops, timings)):
                attempted += 1
                if elapsed is None:
                    failed += 1
                    problems.append(f"{op.label}: raised {type(result).__name__}: {result}")
                    continue
                digest = op.digest(result)
                if seen.get(i) == digest:
                    continue
                problem = op.check(result)
                if problem:
                    failed += 1
                    correct = False
                    problems.append(f"{op.label}: {problem}")
                else:
                    seen[i] = digest
            for _ in range(SETUPS_BETWEEN):
                timed_setup()
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each operation's time over the reference loop's time around it, median
    # over the passes: the machine's speed moves by tens of percent within
    # seconds, and the ratio cancels most of that (README.md).
    ratios = [[t / r for t, r in zip(times, refs) if t is not None]
              for times, refs in zip(zip(*op_passes), zip(*ref_passes))]
    per_op = [statistics.median(col) if col else 0.0 for col in ratios]
    per_kind = dict.fromkeys(KINDS, 0.0)
    for op, ratio in zip(ops, per_op):
        per_kind[op.kind] += ratio
    record = {k + "_ref": v for k, v in per_kind.items()}
    record["wall_ref"] = sum(per_op)
    best = [min((t for t in col if t is not None), default=0.0) for col in zip(*op_passes)]
    record["wall_s"] = sum(best)
    record["wall_median_s"] = statistics.median(pass_walls)
    record["reference_median_s"] = statistics.median(r for refs in ref_passes for r in refs)
    record["setup_s"] = statistics.median(setup_times)
    record["setup_times"] = setup_times
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["pass_walls"] = pass_walls
    record["op_passes"] = op_passes
    record["ref_passes"] = ref_passes
    if args.trace:
        for row in layer_passes:
            calls = row.get("extension.expand_witness.calls", 0)
            row["extension.expand_witness.found_ratio"] = (
                row.get("extension.expand_witness.found", 0) / calls if calls else 0.0)
            parts = row.get("extension.compatible_language_parts.returned", 0)
            row["extension.language_parts_used_ratio"] = (
                row.get("extension.verify_gamma.checked", 0) / parts if parts else 0.0)
        every = sorted(set().union(*layer_passes))
        record["layers"] = {name: statistics.median(row.get(name, 0.0) for row in layer_passes)
                            for name in every}
        tracer.dump(os.path.join(OUT, f"spans-{tag}.json"), span_passes)
        metrics = {name: {"value": record["layers"].get(name, 0.0), "unit": unit_of(name)}
                   for name in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": record["setup_s"], "unit": "s"},
            "wall_ref": {"value": record["wall_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    record["problems"] = problems
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
