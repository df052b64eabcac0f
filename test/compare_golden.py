#!/usr/bin/env python3
"""Compare a float-cycle determinism golden with its milli-cycle successor.

Usage: python3 test/compare_golden.py OLD NEW

OLD is a test/determinism.expected that printed cycles as hex floats
(`cycles=%h tx_cycles=%h`, and `cycles=%h` inside `stm={...}`); NEW is one
that prints integer milli-cycles (`mcycles=%d tx_mcycles=%d`, and
`mcycles=%d` inside `stm={...}`).  For example:

    git show <old-commit>:test/determinism.expected > /tmp/old.expected
    python3 test/compare_golden.py /tmp/old.expected test/determinism.expected

Every other field must be byte-identical, in the same order, row by row.
Each cycle field must agree within 1e-9 relative, reading NEW's value as
milli-cycles / 1000 (what `Counters.cycles` returns).  Prints how many rows
moved per cycle field and the largest relative move; exits 1 on any
mismatch.  Neither dune nor CI runs this script.
"""

import sys

TOLERANCE = 1e-9

# (old key, new key, label) for the top-level and the stm-block cycle fields.
TOP = [("cycles", "mcycles", "cycles"), ("tx_cycles", "tx_mcycles", "tx_cycles")]
STM = [("cycles", "mcycles", "stm cycles")]


def split_fields(text):
    """Split `k=v k={a=1 b=2} ...` on spaces outside braces."""
    fields, depth, cur = [], 0, []
    for ch in text:
        if ch == " " and depth == 0:
            if cur:
                fields.append("".join(cur))
                cur = []
            continue
        depth += {"{": 1, "}": -1}.get(ch, 0)
        cur.append(ch)
    if cur:
        fields.append("".join(cur))
    return [tuple(f.split("=", 1)) for f in fields]


def parse(path):
    rows = []
    with open(path) as f:
        for line in f:
            name, _, rest = line.rstrip("\n").partition(" ")
            rows.append((name, split_fields(rest)))
    return rows


def compare_fields(row, old, new, cycle_fields, stats, errors):
    renames = {o: (n, label) for o, n, label in cycle_fields}
    if len(old) != len(new):
        errors.append(f"{row}: {len(old)} fields before, {len(new)} after")
        return
    for (ok, ov), (nk, nv) in zip(old, new):
        if ok in renames:
            want, label = renames[ok]
            if nk != want:
                errors.append(f"{row}: expected {want}= where {ok}= was, got {nk}=")
                continue
            before = float.fromhex(ov)
            after = int(nv) / 1000.0
            rel = abs(after - before) / abs(before) if before else abs(after)
            moved, worst = stats[label]
            stats[label] = (moved + (after != before), max(worst, rel))
            if rel > TOLERANCE:
                errors.append(f"{row}: {label} {before!r} -> {after!r} (rel {rel:.3g})")
        elif ok == "stm" and nk == "stm":
            compare_fields(row, split_fields(ov[1:-1]), split_fields(nv[1:-1]), STM,
                           stats, errors)
        elif (ok, ov) != (nk, nv):
            errors.append(f"{row}: {ok}={ov} became {nk}={nv}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = parse(argv[1]), parse(argv[2])
    errors = []
    if len(old) != len(new):
        errors.append(f"{len(old)} rows before, {len(new)} after")
    stats = {label: (0, 0.0) for _, _, label in TOP + STM}
    for (oname, ofields), (nname, nfields) in zip(old, new):
        if oname != nname:
            errors.append(f"row {oname} became {nname}")
            continue
        compare_fields(oname, ofields, nfields, TOP, stats, errors)
    print(f"rows: {len(new)}")
    for label, (moved, worst) in stats.items():
        print(f"{label}: {moved} rows moved, max relative move {worst:.3g}")
    for e in errors[:20]:
        print("MISMATCH", e)
    if errors:
        print(f"FAIL: {len(errors)} mismatches")
        return 1
    print("OK: every non-cycle field byte-identical, every cycle field within 1e-9")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
