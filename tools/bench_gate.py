#!/usr/bin/env python3
"""Bench regression gate: compares fresh BENCH_*.json results against the
committed baselines in bench/baselines/ and fails on geomean regressions.

Every scorecard bench already enforces its own absolute claims (and exits
nonzero when one fails); this gate adds a *relative* check so a change
that still clears the absolute bars but silently gives back headroom is
caught in CI.

Rules:
  * Modeled metrics (deterministic functions of the config) use a tight
    5% threshold — any drift past that is a real model change and must be
    accompanied by a baseline update in the same commit.
  * Wall-clock metrics use a generous 50% threshold: CI hosts are noisy,
    and the benches' own absolute claims remain the hard floor.
  * `claims_failed` must be 0 in every result that reports it.
  * A baseline without a matching result fails (a bench silently dropped
    from CI is itself a regression).

Usage:
  tools/bench_gate.py --baselines bench/baselines --results build
  tools/bench_gate.py --list     # show the gated metrics and thresholds
"""

import argparse
import json
import os
import sys

MODELED = 0.05    # deterministic model outputs: tight
WALLCLOCK = 0.50  # host-time measurements: generous (the benches' own
                  # absolute claims remain the hard floor)

# bench name -> [(dotted.path, direction, threshold)]
# direction "higher": new >= baseline * (1 - threshold)
# direction "lower":  new <= baseline * (1 + threshold)
METRICS = {
    "governor": [
        ("pure_read.geomean_speedup", "higher", MODELED),
        ("mixed.geomean_speedup", "higher", MODELED),
    ],
    "compression": [
        ("store_ratio", "higher", MODELED),
        ("modeled.geomean_byte_reduction", "higher", MODELED),
        ("modeled.geomean_speedup", "higher", MODELED),
        ("wallclock_scan.geomean_speedup", "higher", WALLCLOCK),
        # Encode cost in units of one read of its source (raw sum-scans of
        # the 192 MiB column; read-only sweeps of the sf 0.2 row image):
        # a second pass over the values shows up as a multiple here.
        ("wallclock_scan.encode_scans", "lower", WALLCLOCK),
        ("store_build.sweeps", "lower", WALLCLOCK),
    ],
    "wallclock_ssb": [
        ("geomean_speedup", "higher", WALLCLOCK),
    ],
    "recovery": [
        ("ssb_tax.geomean_durable_ingest", "lower", MODELED),
        ("ssb_tax.geomean_off", "lower", MODELED),
        # Write-once ingest: a second PMEM copy of each byte doubles
        # write_amp, an extra fence per epoch adds one — both fail here.
        ("ingest_cost.write_amp", "lower", MODELED),
        ("ingest_cost.fences_per_epoch", "lower", MODELED),
    ],
    # Breakers-on recovery cost: the counters are deterministic (one
    # worker), so drift past the modeled tolerance is a behavior change.
    "overload": [
        ("breakers.failovers_on", "lower", MODELED),
        ("breakers.retries_on", "lower", MODELED),
    ],
    # service asserts its SLOs absolutely (and determinism by digest);
    # the gate only re-checks that no claim failed.
    "service": [],
    "tiering": [
        ("skew.geomean_vs_static", "higher", MODELED),
        ("skew.geomean_vs_lru", "higher", MODELED),
        ("sf100.geomean_vs_static", "higher", MODELED),
    ],
}


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_file(baseline_path, result_path):
    """Returns a list of (ok, description) rows for one bench."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    name = baseline.get("bench", os.path.basename(baseline_path))

    if not os.path.exists(result_path):
        return [(False, f"{name}: no result at {result_path} (bench "
                        "dropped from CI?)")]
    with open(result_path) as f:
        result = json.load(f)

    rows = []
    claims = result.get("claims_failed")
    if claims is not None:
        rows.append((claims == 0,
                     f"{name}: claims_failed == 0 (got {claims})"))

    for dotted, direction, threshold in METRICS.get(name, []):
        base = lookup(baseline, dotted)
        new = lookup(result, dotted)
        if base is None:
            rows.append((False, f"{name}: baseline missing {dotted} "
                                "(regenerate bench/baselines)"))
            continue
        if new is None:
            rows.append((False, f"{name}: result missing {dotted}"))
            continue
        if direction == "higher":
            floor = base * (1.0 - threshold)
            ok = new >= floor
            rows.append((ok, f"{name}: {dotted} {new:.4g} >= {floor:.4g} "
                             f"(baseline {base:.4g}, -{threshold:.0%})"))
        else:
            ceil = base * (1.0 + threshold)
            ok = new <= ceil
            rows.append((ok, f"{name}: {dotted} {new:.4g} <= {ceil:.4g} "
                             f"(baseline {base:.4g}, +{threshold:.0%})"))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--results", default="build",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--list", action="store_true",
                        help="print the gated metrics and exit")
    args = parser.parse_args()

    if args.list:
        for name, metrics in sorted(METRICS.items()):
            print(f"{name}: claims_failed == 0")
            for dotted, direction, threshold in metrics:
                print(f"  {dotted} ({direction} is better, "
                      f"{threshold:.0%} threshold)")
        return 0

    baselines = sorted(
        f for f in os.listdir(args.baselines)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baselines}",
              file=sys.stderr)
        return 2

    failures = 0
    for filename in baselines:
        rows = check_file(os.path.join(args.baselines, filename),
                          os.path.join(args.results, filename))
        for ok, description in rows:
            print(f"[{'PASS' if ok else 'FAIL'}] {description}")
            if not ok:
                failures += 1
    if failures:
        print(f"\n{failures} gate(s) failed. If the regression is an "
              "intended trade-off, update bench/baselines/ in this "
              "change and say why in the commit message.")
        return 1
    print("\nall bench gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
