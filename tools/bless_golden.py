#!/usr/bin/env python3
"""Regenerate the golden trajectory digests in ``tests/golden/digests.json``.

Usage (from the repo root)::

    PYTHONPATH=src python tools/bless_golden.py            # every case
    PYTHONPATH=src python tools/bless_golden.py fra_k30    # named cases

A re-bless changes what "same behaviour" means for every later change,
so it needs a reason line in CHANGES.md naming the cases and why their
trajectories moved. For each case the script prints which digest fields
changed against the committed digest and the first and last δ before
and after, for that line to quote.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
sys.path.insert(0, str(GOLDEN))

from golden_cases import CASES, digest  # noqa: E402


def report(name: str, old, new) -> str:
    """One line: the changed digest fields and the δ series' ends."""
    deltas = new["summary"]["deltas"]
    after = f"δ {deltas[0]!r} .. {deltas[-1]!r}"
    if old is None:
        return f"{name}: new digest; {after}"
    changed = [key for key in sorted(new["sha256"])
               if new["sha256"][key] != old["sha256"].get(key)]
    if not changed:
        return f"{name}: unchanged; {after}"
    was = old["summary"]["deltas"]
    return (f"{name}: {', '.join(changed)} changed; "
            f"δ {was[0]!r} .. {was[-1]!r} -> {deltas[0]!r} .. {deltas[-1]!r}")


def main(argv) -> int:
    names = argv or sorted(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(CASES))}", file=sys.stderr)
        return 2
    path = GOLDEN / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        old = digests.get(name)
        digests[name] = digest(CASES[name]())
        print(report(name, old, digests[name]))
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
