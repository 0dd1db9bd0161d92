"""Steadiness check: two sets of runs, taken apart in time, compared.

    python3 perfbench/steady.py --seeds 10

Set A runs every workload of ``BENCHMARK.json`` on seeds 1..N
(workloads interleaved); after a pause of ``GAP_SECONDS``, set B runs
them on seeds N+1..2N.  Last, seed 1 of every workload runs once more.
For every end-to-end metric the command prints each set's median and
quartiles and the quartile spread as a share of the median, then checks
what ``BENCHMARK.json`` promises:

* each set's spread stays within the metric's bound, except that of
  ``setup_s`` (one set-up per run; its spread is printed and flagged);
* set B's median is not worse than set A's by more than the bound;
* the share of failed operations is identical in both sets;
* ``io_per_query`` and ``papp_per_query`` of the rerun of seed 1 equal
  those of its first run exactly.

The re-report latencies a run prints outside its result (``ungated``)
are summarised the same way, without a bound.  The bounds in
``BENCHMARK.json`` are set from this command's output.  Results go to
``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pause between the two sets, so that they sample the machine's speed at
# different times rather than back to back.
GAP_SECONDS = 120
# Counts that must repeat exactly for the same seed.
EXACT = ("io_per_query", "papp_per_query")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("ungated: "):
            result["ungated"] = json.loads(line[len("ungated: "):])
    result["wall_s"] = time.monotonic() - started
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for index, label in enumerate("AB"):
        if index:
            time.sleep(GAP_SECONDS)
        for k in range(args.seeds):
            seed = index * args.seeds + k + 1
            for workload in workloads:
                result = run_once(workload, seed, bench["run_seconds"])
                runs[workload][label].append(result)
                print(f"set {label} {workload} seed {seed}: {result['wall_s']:.1f} s, "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)

    report: dict = {}
    ok = True
    for workload, sets in runs.items():
        report[workload] = {}
        print(f"\n{workload}")
        print(f"  {'metric':16s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, spec in metrics.items():
            per_set = {
                label: summary([r["metrics"][name]["value"] for r in results])
                for label, results in sets.items()
            }
            report[workload][name] = per_set
            bound = spec["bound"]
            for label, s in per_set.items():
                flag = ""
                if s["spread"] > bound and name != "setup_s":
                    flag, ok = "  SPREAD > BOUND", False
                elif s["spread"] > bound:
                    flag = "  spread > bound (not gated)"
                elif s["spread"] > bound / 3:
                    flag = "  spread > bound/3"
                print(f"  {name:16s} {label:3s} {s['median']:12.4f} {s['q1']:12.4f} "
                      f"{s['q3']:12.4f} {s['spread']:7.3f} {bound:6.3f}{flag}")
            a, b = per_set["A"]["median"], per_set["B"]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            report[workload][name]["B_worse_by"] = worse
            if worse > bound:
                ok = False
                print(f"  {name}: set B worse than set A by {worse:.3f} > {bound}")
        for name in sets["A"][0].get("ungated", {}):
            per_set = {
                label: summary([r["ungated"][name]["value"] for r in results])
                for label, results in sets.items()
            }
            report[workload][name] = per_set
            for label, s in per_set.items():
                print(f"  {name:16s} {label:3s} {s['median']:12.4f} {s['q1']:12.4f} "
                      f"{s['q3']:12.4f} {s['spread']:7.3f}      -  (ungated)")
        shares = {
            label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for label, rs in sets.items()
        }
        report[workload]["failed_share"] = shares
        if shares["A"] != shares["B"]:
            ok = False
            print(f"  failed share differs between sets: {shares}")

        first = sets["A"][0]["metrics"]
        again = run_once(workload, 1, bench["run_seconds"])["metrics"]
        for name in EXACT:
            same = first[name]["value"] == again[name]["value"]
            report[workload][f"{name}_repeats"] = same
            print(f"  {name} seed 1, two runs: {first[name]['value']!r} and "
                  f"{again[name]['value']!r}" + ("" if same else "  DIFFER"))
            ok = ok and same
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"ok": ok, "report": report, "runs": runs}, fh, indent=1)
    print("\nsets agree within the bounds" if ok else "\nsets DO NOT agree within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
