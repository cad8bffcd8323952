"""Run two sets of the same code back to back and compare them.

    python3 perfbench/steady.py --seeds 10 [--workload NAME ...]

For each of two sets, each workload and each seed it runs
``perfbench/run.py`` in a fresh process, then prints per end-to-end
metric the median, first and third quartile and the spread
(IQR / median) of each set, whether each spread stays within the
metric's bound, and whether the second set's median stays within the
bound of the first.  The verdict needs both, except that a ``setup_s``
spread beyond its bound is flagged but does not fail it (see
``UNGATED_SPREADS``).  Run from the repository root; ``--out FILE`` also
keeps every raw result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
#: Metrics whose spread is printed and flagged but does not decide the
#: verdict; their medians are still compared.  Set-up is imports, which
#: is interpreter-bound code, and on a shared host that follows the
#: host's speed phases: 20 back-to-back sched-sweep set-ups read
#: 0.56-0.68 s, then 0.70-0.80 s, with CPU time tracking wall time.
UNGATED_SPREADS = ("setup_s",)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    results = {}  # (set, workload) -> list of result objects
    out = args.out.open("a") if args.out else None
    try:
        for set_index in range(SETS):
            for workload in workloads:
                for seed in seeds:
                    result = run_once(workload, seed, args.seconds)
                    results.setdefault((set_index, workload),
                                       []).append(result)
                    if out:
                        out.write(json.dumps({"set": set_index,
                                              "workload": workload,
                                              "seed": seed,
                                              "result": result}) + "\n")
                        out.flush()
    finally:
        if out:
            out.close()

    ok = True
    for workload in workloads:
        print(f"== {workload}")
        shares = []
        for set_index in range(SETS):
            runs = results[(set_index, workload)]
            correct = all(r["correct"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append([r["failed"] / r["attempted"] for r in runs])
            ok &= correct
            print(f"  set {set_index}: correct={correct} "
                  f"attempted={attempted} failed={failed}")
        if len({share for runs in shares for share in runs}) > 1:
            ok = False
            print("  failed share differs between runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            line = f"  {name:34s}"
            for set_index in range(SETS):
                values = [r["metrics"][name]["value"]
                          for r in results[(set_index, workload)]]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median if median else 0.0
                medians.append(median)
                line += (f" | med {median:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                         f"spread {spread:.3f}")
                if spread > bound:
                    ok &= name in UNGATED_SPREADS
                    line += " SPREAD>BOUND"
            if medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                line += f" | change {change:+.3f}"
                if worse > bound:
                    ok = False
                    line += " WORSE>BOUND"
            print(line)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
