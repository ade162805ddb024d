"""Command line front end.

Every run prints a machine-readable report to standard output, one
``key<TAB>value`` pair per line in a stable order.  Exit codes: 0 for
success or a verified-true answer, 1 for a verified-false answer (non-member,
failing witness), 2 for input or format problems, 3 when no completion or no
witness exists within the searched bounds, and 4 when an internal audit fails
(``outcome internal-error``: a fault in this package, not in the input; the
report carries the audit's message and no traceback is printed).  Reports are
byte-identical across runs for identical inputs and seed; timing is only
reported when ``--timing`` is requested, because it would break that
guarantee.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time

from .completion import (OrientationSet, antipodal_complete,
                         shortest_path_completion)
from .errors import (AntipodalError, CompletionError, FormatError, InputError,
                     InternalError, NonMetricCycleError)
from .extension import (extend_partial_automorphism, pipeline, search_witness,
                        verify_eppa_witness)
from .fileformat import (StructureFile, read_structure_file,
                         write_structure_file, write_structure_text)
from .generation import random_member
from .membership import (ClassDescriptor, Variant, antipodal_closure,
                         find_forbidden_triple, fold, unfold)
from .structures import PartialMap
from .valuations import GammaLStructure, build_suitable_expansion, pad_bipartition

OK, VERIFIED_FALSE, INPUT_ERROR, NO_RESULT, INTERNAL_ERROR = 0, 1, 2, 3, 4


class Report:
    """Ordered key-value lines, written as ``key<TAB>value``."""

    def __init__(self, command: str):
        self._items: list[tuple[str, str]] = [("command", command)]

    def add(self, key: str, value) -> None:
        self._items.append((key, str(value)))

    def write(self, stream) -> None:
        for key, value in self._items:
            stream.write(f"{key}\t{value}\n")


def _digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load(report: Report, path, slot: str = "input") -> StructureFile:
    report.add(slot, path)
    report.add(f"{slot}.sha256", _digest(path))
    return read_structure_file(path)


def _descriptor(args, parsed: StructureFile) -> ClassDescriptor:
    delta = args.delta if args.delta is not None else parsed.graph.delta
    k_value = args.K
    variant = Variant(args.variant) if args.variant else None
    if k_value is None and parsed.descriptor is not None:
        k_value = parsed.descriptor.K
        if variant is None:
            variant = parsed.descriptor.variant
    if k_value is None:
        raise InputError("no K given (use --K or a 'K' line in the file)")
    return ClassDescriptor(delta, k_value, variant)


def _orientation(args, desc: ClassDescriptor) -> OrientationSet | None:
    if desc.variant is not Variant.EVEN_BIPARTITE:
        if args.O:
            raise InputError("--O applies to even-bipartite classes only")
        return None
    if not args.O:
        return OrientationSet.default(desc.delta)
    try:
        members = frozenset(int(tok) for tok in args.O.split(","))
    except ValueError:
        raise InputError(f"--O must be a comma list of integers, got {args.O!r}")
    return OrientationSet(desc.delta, members)


def _emit_structure(report: Report, args, structure, descriptor=None, parity=None):
    parsed = StructureFile(structure, descriptor, parity)
    text = write_structure_text(parsed)
    report.add("output.sha256", hashlib.sha256(text.encode()).hexdigest())
    if getattr(args, "out", None):
        write_structure_file(args.out, parsed)
        report.add("output", args.out)
    else:
        report.add("output", "-")


def _cmd_validate(args, report: Report) -> int:
    parsed = _load(report, args.file)
    desc = _descriptor(args, parsed)
    report.add("delta", desc.delta)
    report.add("K", desc.K)
    report.add("variant", desc.variant.value)
    triple = find_forbidden_triple(parsed.graph, desc)
    if triple is None:
        report.add("outcome", "member")
        return OK
    u, v, w = triple
    g = parsed.graph
    report.add("outcome", "non-member")
    report.add("violation.vertices", f"{u},{v},{w}")
    report.add("violation.labels",
               f"{g.dist(u, v)},{g.dist(u, w)},{g.dist(v, w)}")
    return VERIFIED_FALSE


def _cmd_complete(args, report: Report) -> int:
    parsed = _load(report, args.file)
    report.add("mode", args.mode)
    if args.mode == "shortest-path":
        try:
            completed = shortest_path_completion(parsed.graph)
        except NonMetricCycleError as exc:
            report.add("outcome", "non-metric-cycle")
            report.add("witness.labels", ",".join(map(str, exc.cycle.labels)))
            if exc.cycle.vertices:
                report.add("witness.vertices", ",".join(map(str, exc.cycle.vertices)))
            return NO_RESULT
        report.add("outcome", "completed")
        # K and the variant only hold for the input's delta; the file may omit them
        kept = parsed.descriptor is not None and parsed.descriptor.delta == completed.delta
        _emit_structure(report, args, completed, parsed.descriptor if kept else None)
        return OK
    desc = _descriptor(args, parsed)
    orientation = _orientation(args, desc)
    if parsed.parity is None:
        raise InputError("antipodal completion needs 'f' lines in the input file")
    completed = antipodal_complete(parsed.graph, parsed.parity, desc, orientation)
    report.add("outcome", "completed")
    _emit_structure(report, args, completed, desc, parsed.parity)
    return OK


def _cmd_fold(args, report: Report) -> int:
    parsed = _load(report, args.file)
    desc = _descriptor(args, parsed)
    folded = fold(parsed.graph, desc=desc)
    report.add("outcome", "folded")
    report.add("vertices", len(folded))
    _emit_structure(report, args, folded)
    return OK


def _cmd_unfold(args, report: Report) -> int:
    parsed = _load(report, args.file)
    desc = _descriptor(args, parsed)
    doubled = unfold(parsed.graph, desc)
    report.add("outcome", "unfolded")
    report.add("vertices", len(doubled))
    _emit_structure(report, args, doubled, desc)
    return OK


def _cmd_close(args, report: Report) -> int:
    parsed = _load(report, args.file)
    desc = _descriptor(args, parsed)
    closed, matching = antipodal_closure(parsed.graph, desc)
    report.add("outcome", "closed")
    report.add("added", len(closed) - len(parsed.graph))
    report.add("matching", matching.m)
    _emit_structure(report, args, closed, desc)
    return OK


def _cmd_expand(args, report: Report) -> int:
    parsed = _load(report, args.file)
    desc = _descriptor(args, parsed)
    orientation = _orientation(args, desc)
    graph = parsed.graph
    if args.pad and desc.variant is Variant.EVEN_BIPARTITE:
        graph = pad_bipartition(graph, desc)
        report.add("padded", len(graph) - len(parsed.graph))
    expansion = build_suitable_expansion(graph, desc, orientation)
    report.add("outcome", "expanded")
    report.add("marks", len(graph))
    _emit_structure(report, args, expansion, desc)
    return OK


def _parse_map(text: str) -> PartialMap:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise InputError(f"map entries look like SRC:DST, got {chunk!r}")
        src, dst = chunk.split(":", 1)
        pairs.append((src.strip(), dst.strip()))
    return PartialMap.of(pairs)


def _cmd_extend(args, report: Report) -> int:
    parsed = _load(report, args.file)
    desc = _descriptor(args, parsed)
    orientation = _orientation(args, desc)
    structure = parsed.structure
    if not isinstance(structure, GammaLStructure):
        structure = build_suitable_expansion(structure, desc, orientation)
    phi = _parse_map(args.map)
    got = extend_partial_automorphism(structure, phi, desc, orientation)
    report.add("outcome", "extended")
    report.add("closure", ",".join(f"{s}:{t}" for s, t in sorted(
        got.vmap.pairs, key=lambda p: structure.index(p[0]))))
    report.add("psi", str(got.lang.psi))
    report.add("flips", str(got.lang.flips))
    return OK


def _cmd_verify_witness(args, report: Report) -> int:
    small = _load(report, args.small, "input.small")
    big = _load(report, args.big, "input.big")
    report.add("mode", args.mode)
    if args.mode == "plain":
        result = verify_eppa_witness(small.graph, big.graph, "plain",
                                     max_domain=args.max_domain,
                                     max_witness=args.max_witness)
    else:
        if not isinstance(small.structure, GammaLStructure) or \
                not isinstance(big.structure, GammaLStructure):
            raise InputError("gamma mode needs files with marks and mates")
        result = verify_eppa_witness(small.structure, big.structure, "gamma",
                                     max_domain=args.max_domain,
                                     max_witness=args.max_witness)
    report.add("checked", result.checked)
    if result.ok:
        report.add("outcome", "witness")
        return OK
    report.add("outcome", "not-a-witness")
    report.add("counterexample", repr(result.counterexample))
    return VERIFIED_FALSE


def _cmd_search_witness(args, report: Report) -> int:
    parsed = _load(report, args.file)
    desc = _descriptor(args, parsed)
    report.add("bound", args.bound)
    if args.pipeline:
        result = pipeline(parsed.graph, desc, "search", max_vertices=args.bound,
                          orientation=_orientation(args, desc))
        if not result.ok:
            report.add("outcome", "no-witness-within-bound")
            report.add("stage", result.stage)
            return NO_RESULT
        report.add("outcome", "witness-found")
        report.add("vertices", len(result.witness))
        report.add("gamma.checked", result.gamma_report.checked)
        report.add("plain.checked", result.plain_report.checked)
        _emit_structure(report, args, result.witness, desc)
        return OK
    witness = search_witness(parsed.graph, desc, args.bound)
    if witness is None:
        report.add("outcome", "no-witness-within-bound")
        return NO_RESULT
    report.add("outcome", "witness-found")
    report.add("vertices", len(witness))
    _emit_structure(report, args, witness, desc)
    return OK


def _cmd_gen(args, report: Report) -> int:
    desc = ClassDescriptor(args.delta, args.K,
                           Variant(args.variant) if args.variant else None)
    report.add("delta", desc.delta)
    report.add("K", desc.K)
    report.add("variant", desc.variant.value)
    report.add("size", args.size)
    report.add("seed", args.seed)
    rng = random.Random(args.seed)
    member = random_member(desc, args.size, rng)
    report.add("outcome", "generated")
    _emit_structure(report, args, member, desc)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antipodal",
        description="membership, completion, expansion and witness tools for "
                    "antipodal integer metric spaces")
    parser.add_argument("--timing", action="store_true",
                        help="append a timing_ms line (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--delta", type=int, default=None)
        p.add_argument("--K", type=int, default=None)
        p.add_argument("--variant", choices=[v.value for v in Variant], default=None)
        p.add_argument("--O", default=None,
                       help="orientation set as a comma list, e.g. 2,3,4")
        if out:
            p.add_argument("--out", default=None, help="write the result here")

    p = sub.add_parser("validate", help="membership test")
    p.add_argument("file")
    common(p, out=False)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("complete", help="fill missing distances")
    p.add_argument("file")
    p.add_argument("--mode", choices=["shortest-path", "antipodal"],
                   default="shortest-path")
    common(p)
    p.set_defaults(handler=_cmd_complete)

    p = sub.add_parser("fold", help="select one vertex per long edge")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_fold)

    p = sub.add_parser("unfold", help="double a folded member")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_unfold)

    p = sub.add_parser("close", help="add the missing mates")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_close)

    p = sub.add_parser("expand", help="build the marked expansion")
    p.add_argument("file")
    p.add_argument("--pad", action="store_true",
                   help="balance the bipartition first when needed")
    common(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("extend", help="lift a partial automorphism to the marks")
    p.add_argument("file")
    p.add_argument("--map", required=True,
                   help="comma list of SRC:DST vertex pairs")
    common(p, out=False)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("verify-witness", help="audit the extension property")
    p.add_argument("small")
    p.add_argument("big")
    p.add_argument("--mode", choices=["plain", "gamma"], default="plain")
    p.add_argument("--max-domain", type=int, default=6)
    p.add_argument("--max-witness", type=int, default=12)
    p.set_defaults(handler=_cmd_verify_witness)

    p = sub.add_parser("search-witness", help="find a witness within a bound")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--pipeline", action="store_true",
                   help="demand a witness that also passes the marked audit")
    common(p)
    p.set_defaults(handler=_cmd_search_witness)

    p = sub.add_parser("gen", help="generate a random member")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--variant", choices=[v.value for v in Variant], default=None)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_gen)

    return parser


def run(argv, stdout=None) -> int:
    """Parse arguments, run the command, print the report; returns the exit code."""
    stream = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code not in (0, None) else 0
    report = Report(args.command)
    started = time.perf_counter()
    try:
        code = args.handler(args, report)
    except (FormatError, InputError) as exc:
        report.add("outcome", "input-error")
        report.add("error", str(exc))
        code = INPUT_ERROR
    except NonMetricCycleError as exc:
        report.add("outcome", "non-metric-cycle")
        report.add("witness.labels", ",".join(map(str, exc.cycle.labels)))
        code = NO_RESULT
    except CompletionError as exc:
        report.add("outcome", "no-completion")
        report.add("error", str(exc))
        code = NO_RESULT
    except InternalError as exc:
        report.add("outcome", "internal-error")
        report.add("error", str(exc))
        code = INTERNAL_ERROR
    except AntipodalError as exc:
        report.add("outcome", "error")
        report.add("error", str(exc))
        code = INPUT_ERROR
    report.add("exit", code)
    if args.timing:
        report.add("timing_ms", round((time.perf_counter() - started) * 1000, 3))
    report.write(stream)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
