#!/usr/bin/env python3
"""Compare two BENCH_<phase>.json files and fail on any simulated drift.

Usage:
    compare.py BASELINE.json CURRENT.json [--allow-missing]

Both files are the `schema: 1` output of osh::bench::BenchReport: one
flat "metrics" object. Every key not starting with "host_" is a
deterministic simulated value (cycles, counters, footprint bytes): the
same source and seed reproduce it exactly. So any difference, in either
direction, fails the comparison (exit 1). A change that moves a
simulated value on purpose refreshes the baseline in the same commit.

Keys starting with "host_" are host wall-time observations (ns, MB/s,
speedup ratios): they depend on the machine the bench ran on, so they
are shown side by side in their own informational table, never gated,
and never produce missing/new warnings or a nonzero exit (baselines may
omit them entirely; a key present in only one run shows "—" in the
other column).

Key-set drift is asymmetric. A key present only in the *current* run is
a warning: adding a metric must not break CI. A baseline key *missing*
from the current run is an error (exit 1): a dropped or renamed metric
silently un-gates whatever it measured, so the baseline must be
refreshed deliberately, in the same change that renames the metric.
--allow-missing downgrades that error back to a warning, for runs
that are partial on purpose (e.g. a --quick sweep compared against
the full committed baseline).
"""

import argparse
import json
import sys


def is_host(key: str) -> bool:
    """Host wall-time metrics: informational on any machine."""
    return key.startswith("host_")


def load_metrics(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unsupported schema {doc.get('schema')!r}")
    return doc["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--allow-missing",
        action="store_true",
        help="downgrade baseline keys missing from the current run "
        "from an error to a warning (for intentionally partial runs, "
        "e.g. --quick sweeps against a full baseline)",
    )
    args = ap.parse_args()

    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)

    checked = sorted(k for k in base.keys() & cur.keys() if not is_host(k))
    drifts = []
    for key in checked:
        b, c = base[key], cur[key]
        if b != c:
            delta = (c - b) / b if b else float("inf")
            drifts.append((key, b, c, delta))

    # Host wall-time: union of both runs' host_ keys, side by side.
    host_rows = []
    for key in sorted(k for k in base.keys() | cur.keys() if is_host(k)):
        b = base.get(key)
        c = cur.get(key)
        if b is not None and c is not None and b != 0:
            delta = f"{(c - b) / b:+.1%}"
        else:
            delta = "—"
        host_rows.append(
            (key, "—" if b is None else str(b),
             "—" if c is None else str(c), delta)
        )

    missing = sorted(k for k in base.keys() - cur.keys() if not is_host(k))
    new = sorted(k for k in cur.keys() - base.keys() if not is_host(k))

    def show_host(rows):
        if not rows:
            return
        key_w = max(len(r[0]) for r in rows)
        b_w = max(len("baseline"), max(len(r[1]) for r in rows))
        c_w = max(len("current"), max(len(r[2]) for r in rows))
        print("host wall-time (informational, never gated):")
        print(
            f"  {'metric':<{key_w}}  {'baseline':>{b_w}}  "
            f"{'current':>{c_w}}  delta"
        )
        for key, b, c, delta in rows:
            print(f"  {key:<{key_w}}  {b:>{b_w}}  {c:>{c_w}}  {delta}")

    if drifts:
        print("DRIFT (simulated metrics must equal the baseline):")
        for key, b, c, delta in drifts:
            print(f"  {key}: {b} -> {c} ({delta:+.1%})")
    show_host(host_rows)
    missing_label = "warning" if args.allow_missing else "error"
    for key in missing:
        print(f"{missing_label}: baseline metric missing from current "
              f"run: {key}")
    for key in new:
        print(f"warning: new metric not in baseline: {key}")

    if drifts:
        print(
            f"FAIL: {len(drifts)}/{len(checked)} simulated metrics "
            f"differ from the baseline"
        )
        return 1
    if missing and not args.allow_missing:
        print(
            f"FAIL: {len(missing)} baseline metrics missing from the "
            f"current run (refresh the baseline if they were renamed)"
        )
        return 1
    print(f"OK: {len(checked)} simulated metrics equal the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
