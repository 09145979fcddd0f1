#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py            # all four workloads
    python3 perfbench/test_perfbench.py short scan # a subset

For each workload it runs the driver four times with one seed and a short
window (two untraced runs, two traced runs) and checks that:

  * the result line has exactly the keys correct/attempted/failed/metrics,
    with correct == true and failed == 0;
  * every metric BENCHMARK.json names is printed, with the unit it names
    (end_to_end on untraced runs, per_layer on traced runs);
  * the two same-seed runs agree exactly on the modeled end-to-end metrics
    and on every deterministic per-layer count.

Host-time metrics are not compared: they are what the benchmark measures.
Exits nonzero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"

# Metrics that are a pure function of the seed and the schedule prefix.
DETERMINISTIC = {
    "modeled_geomean_s", "modeled_p99_s", "correct_frac",
    "engine.tuples_per_query", "engine.probes_per_tuple",
    "engine.agg_per_tuple", "exec.morsels_per_query", "qos.shed",
    "governor.actuations", "governor.staged_mib", "encoding.bytes_per_value",
    "tiering.hot_coverage", "tiering.ssd_share", "tiering.migrations",
    "tiering.migration_mib", "durability.write_amp",
    "durability.flush_lines_per_epoch", "durability.fences_per_epoch",
    "durability.modeled_ms_per_epoch", "durability.modeled_ingest_s",
    "host.nproc", "host.threads",
}
DETERMINISTIC_PREFIXES = ("engine.phase.", "engine.bytes.")


def deterministic(name):
    return name in DETERMINISTIC or name.startswith(DETERMINISTIC_PREFIXES)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", SEED, "--seconds", "0.2",
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n"
                 f"{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)


def main(workloads):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    for workload in workloads or known:
        check(workload in known, f"unknown workload {workload}")
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            first, second = run(workload, trace), run(workload, trace)
            for result in (first, second):
                check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                      f"{workload}: result keys {sorted(result)}")
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1,
                      f"{workload}: incorrect run {result['failed']}/{result['attempted']}")
                for metric in bench[section]:
                    got = result["metrics"].get(metric["name"])
                    check(got is not None,
                          f"{workload}: {metric['name']} not printed")
                    check(got["unit"] == metric["unit"],
                          f"{workload}: {metric['name']} unit {got['unit']}")
            for name, value in first["metrics"].items():
                if deterministic(name):
                    check(value["value"] == second["metrics"][name]["value"],
                          f"{workload}: {name} differs between same-seed runs: "
                          f"{value['value']} vs {second['metrics'][name]['value']}")
            print(f"ok   {workload} {section}: {len(first['metrics'])} metrics, "
                  "same-seed runs agree")
    print("all checks passed")


if __name__ == "__main__":
    main(sys.argv[1:])
