"""Compare two sets of perfbench results.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds saved standard outputs of perfbench runs, one file
per run. For every workload and metric the script prints each side's
median and its quartile spread (third minus first quartile, as a share
of the median), and the new median as a share of the base median. Runs
whose host core count differs from the base's first run are flagged:
their timings are not comparable. So are runs during which the
hypervisor took more than 2% of the run's wall time from the CPUs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HOST = "# host {"
STEAL = "# host steal: "
# Share of one run's wall time that the hypervisor took from the CPUs
# (summed over CPUs) above which a run is flagged as disturbed.
STEAL_FLAG = 0.02


def load(directory):
    """(host header, result) per run, grouped by workload."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        header = next((json.loads(l[len(HOST) - 1:]) for l in lines if l.startswith(HOST)), None)
        if header is None:
            continue  # not a perfbench result (e.g. a saved stderr)
        steal = next((l[len(STEAL):].split() for l in lines if l.startswith(STEAL)), None)
        if steal and float(steal[0]) > STEAL_FLAG * float(steal[-2]):
            print(f"WARNING {path}: the hypervisor took {steal[0]} s of CPU during the {steal[-2]} s run")
        runs[header["workload"]].append((header, json.loads(lines[-1])))
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    reference = next((h["nproc"] for runs in base.values() for h, _ in runs), None)
    for side, runs in (("base", base), ("new", new)):
        for workload, items in runs.items():
            for header, _ in items:
                if header["nproc"] != reference:
                    print(f"WARNING {side} {workload} seed {header['seed']}: "
                          f"nproc {header['nproc']} differs from the base's {reference}")
    for workload in sorted(set(base) | set(new)):
        print(f"\n{workload}")
        print(f"  {'metric':<28} {'base median':>14} {'spread':>8} {'new median':>14} {'spread':>8} {'new/base':>9}")
        metrics = defaultdict(lambda: ([], []))
        for i, runs in enumerate((base.get(workload, []), new.get(workload, []))):
            for _, result in runs:
                if not result["correct"]:
                    print(f"  a {'base' if i == 0 else 'new'} run reported correct=false")
                for name, m in result["metrics"].items():
                    metrics[name][i].append(m["value"])
        for name, (b, n) in metrics.items():
            bm = statistics.median(b) if b else float("nan")
            nm = statistics.median(n) if n else float("nan")
            print(f"  {name:<28} {bm:>14.6g} {spread(b):>8.3f} {nm:>14.6g} {spread(n):>8.3f} {nm / bm:>9.3f}")


if __name__ == "__main__":
    main()
