"""Rebuild ``verdicts.json``, the verdict of every search instance.

Run from the repository root (it takes about a minute):

    python3 perfbench/verdicts.py

Each instance of the search workloads is searched twice: once as given (the
names of seed 0, vertices in pair order) and once on a copy with other names
and the vertices shuffled.  A verdict (witness size, or ``null`` when the
bounded search ends without one) is kept only when the two runs agree.  Timed
runs compare their verdicts with this table; found witnesses are re-audited
by the checkers as well, so the table is what vouches for the searches that
end without a witness.
"""

from __future__ import annotations

import json
import os
import random
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import antipodal.extension  # noqa: E402
import antipodal.membership  # noqa: E402
import antipodal.structures  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    lib = types.SimpleNamespace(extension=antipodal.extension,
                                membership=antipodal.membership,
                                structures=antipodal.structures)
    table, disagreements = {}, []
    for name, instances in workloads.SEARCHES.items():
        for inst in instances:
            ident, bound = inst[0], inst[4]
            got = []
            for rng, shuffle in ((random.Random(f"{ident}/given"), False),
                                 (random.Random(f"{ident}/renamed"), True)):
                graph, desc = workloads.search_input(lib, inst, rng, shuffle)
                r = lib.extension.pipeline(graph, desc, "search", max_vertices=bound)
                got.append(len(r.witness) if r.ok else None)
            print(ident, *got, flush=True)
            if got[0] == got[1]:
                table[ident] = got[0]
            else:
                disagreements.append(ident)
    with open(workloads.VERDICTS, "w", encoding="utf-8") as handle:
        json.dump({"verdicts": table}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for ident in disagreements:
        print(f"{ident}: verdict changed under renaming; left out", file=sys.stderr)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
