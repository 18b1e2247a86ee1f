#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json trajectory.

Compares a run's benchmark JSON (written by bench/BenchUtil.h's JsonReport
into $SLIN_BENCH_DIR) against a committed baseline snapshot and fails when
any entry's headline wall-clock metric regressed by more than the
threshold. Entries are matched by their identity fields (label, engine,
workers, taps; a field an entry does not carry matches as absent), so a
sweep's rows (one per worker count or tap count) each gate on their own.
The headline metric is the first wall-clock field an entry carries, in
this preference order:

    ns_per_output, p99_ms, p50_ms, ms, warm_ms, cold_ms, seconds

FLOP/multiplication counts are deterministic and checked by the test
suite, so only wall-clock fields gate here. New benchmarks and new
entries pass ungated, but are *reported* as "NEW (ungated)" rows so a
reviewer can see what has no baseline yet and refresh it with --update.
A whole baseline file absent from the current run is reported and
skipped (partial runs gate what they ran); a baseline entry missing
from a file the current run DID produce fails, so coverage within a
benchmark cannot silently shrink.

Usage:
    bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold 0.25]
    bench_compare.py BASELINE_DIR CURRENT_DIR --update   # refresh baseline
"""

import argparse
import json
import os
import shutil
import sys

HEADLINE_PREFERENCE = [
    "ns_per_output",
    "p99_ms",
    "p50_ms",
    "ms",
    "warm_ms",
    "cold_ms",
    "seconds",
]


IDENTITY_FIELDS = ("label", "engine", "workers", "taps")


def identity(entry):
    return tuple(entry.get(field) for field in IDENTITY_FIELDS)


def describe(key):
    """(label with any workers/taps suffix, engine) for report rows."""
    label, engine, workers, taps = key
    for name, value in (("workers", workers), ("taps", taps)):
        if value is not None:
            label = f"{label} {name}={value}"
    return label, engine


def headline(entry):
    for key in HEADLINE_PREFERENCE:
        value = entry.get(key)
        if isinstance(value, (int, float)) and value > 0:
            return key, float(value)
    return None, None


def load(path):
    with open(path) as f:
        doc = json.load(f)
    entries = {}
    for entry in doc.get("entries", []):
        entries[identity(entry)] = entry
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir")
    parser.add_argument("current_dir")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated relative regression (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the current BENCH_*.json over the baseline and exit",
    )
    args = parser.parse_args()

    # A run that produced nothing must not gate as "compared 0, PASS" —
    # that is exactly how a broken $SLIN_BENCH_DIR wiring (unset, or
    # pointing somewhere the benchmarks never wrote) would slip through.
    if not os.path.isdir(args.current_dir):
        print(
            f"error: current dir {args.current_dir!r} does not exist — "
            "is SLIN_BENCH_DIR set and did the benchmarks run?",
            file=sys.stderr,
        )
        return 2
    current_files = sorted(
        f
        for f in os.listdir(args.current_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not current_files and not args.update:
        print(
            f"error: no BENCH_*.json under {args.current_dir!r} — "
            "is SLIN_BENCH_DIR set and did the benchmarks run?",
            file=sys.stderr,
        )
        return 2
    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        stale = [
            f
            for f in os.listdir(args.baseline_dir)
            if f.startswith("BENCH_")
            and f.endswith(".json")
            and f not in current_files
        ]
        for name in stale:
            os.remove(os.path.join(args.baseline_dir, name))
        for name in current_files:
            shutil.copyfile(
                os.path.join(args.current_dir, name),
                os.path.join(args.baseline_dir, name),
            )
        print(
            f"baseline refreshed: {len(current_files)} files"
            + (f", {len(stale)} stale removed" if stale else "")
        )
        return 0

    baseline_files = sorted(
        f
        for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not baseline_files:
        print(f"error: no BENCH_*.json under {args.baseline_dir}", file=sys.stderr)
        return 2

    failures = []
    rows = []
    notes = []
    compared = 0
    new_entries = 0
    for name in baseline_files:
        current_path = os.path.join(args.current_dir, name)
        if not os.path.exists(current_path):
            notes.append(
                f"{name}: not produced by this run (baseline kept; "
                "entries not gated)"
            )
            continue
        base_entries = load(os.path.join(args.baseline_dir, name))
        cur_entries = load(current_path)
        for key in sorted(set(cur_entries) - set(base_entries), key=str):
            label, engine = describe(key)
            metric, value = headline(cur_entries[key])
            if metric is None:
                continue  # counters-only entry: would never gate anyway
            new_entries += 1
            rows.append(
                f"  {name[6:-5]:<24} {label:<28} {engine:<9} {metric:<14}"
                f"{'--':>14} {value:>14.3f} {'NEW':>8}  (ungated)"
            )
        for key, base_entry in sorted(base_entries.items(), key=str):
            label, engine = describe(key)
            metric, base_value = headline(base_entry)
            if metric is None:
                continue  # counters-only entry: nothing to gate
            cur_entry = cur_entries.get(key)
            if cur_entry is None:
                failures.append(
                    f"{name}: entry ({label}, {engine}) missing from the current run"
                )
                continue
            cur_value = cur_entry.get(metric)
            if not isinstance(cur_value, (int, float)) or cur_value <= 0:
                failures.append(
                    f"{name}: ({label}, {engine}) lost its {metric} field"
                )
                continue
            compared += 1
            delta = cur_value / base_value - 1.0
            marker = ""
            if delta > args.threshold:
                marker = "  << REGRESSION"
                failures.append(
                    f"{name}: ({label}, {engine}) {metric} "
                    f"{base_value:.3f} -> {cur_value:.3f} ({delta:+.1%})"
                )
            rows.append(
                f"  {name[6:-5]:<24} {label:<28} {engine:<9} {metric:<14}"
                f"{base_value:>14.3f} {cur_value:>14.3f} {delta:>+8.1%}{marker}"
            )

    for name in current_files:
        if name in baseline_files:
            continue
        for key, entry in sorted(load(os.path.join(args.current_dir, name)).items(), key=str):
            label, engine = describe(key)
            metric, value = headline(entry)
            if metric is None:
                continue
            new_entries += 1
            rows.append(
                f"  {name[6:-5]:<24} {label:<28} {engine:<9} {metric:<14}"
                f"{'--':>14} {value:>14.3f} {'NEW':>8}  (ungated)"
            )

    print(
        f"  {'benchmark':<24} {'label':<28} {'engine':<9} {'metric':<14}"
        f"{'baseline':>14} {'current':>14} {'delta':>8}"
    )
    for row in rows:
        print(row)
    summary = f"\ncompared {compared} entries at threshold +{args.threshold:.0%}"
    if new_entries:
        summary += (
            f"; {new_entries} new (ungated — run --update to baseline them)"
        )
    print(summary)
    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("PASS: no entry regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
