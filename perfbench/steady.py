"""Steadiness check: run one workload on two sets of ten seeds and report,
for each end-to-end metric, the quartile spread as a share of the median
against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload roundtrip

The first set runs seeds 1..10, the second seeds 11..20.  A spread
should stay under a third of its bound (``setup_s`` excepted, whose
spread is not bounded), the second set's median should differ from the
first's by at most the bound in either direction, and the share of
failed operations must be the same in every run.  Next to each timed
median it prints the median of the raw wall times from the run records.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_PER_SET = 10
SEED_SETS = (range(1, 11), range(11, 21))


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
    record = json.loads((ROOT / "perfbench-runs" / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    return json.loads(proc.stdout.splitlines()[-1]), record["wall"]["cli_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    medians = []
    for set_no, seeds in enumerate(SEED_SETS):
        runs = [one_run(args.workload, seed, spec["run_seconds"]) for seed in seeds]
        results = [result for result, _ in runs]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"set {set_no + 1}: seeds {seeds.start}..{seeds.stop - 1}, "
              f"failed shares {sorted(shares)}")
        ok &= len(shares) == 1
        set_medians = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            set_medians[name] = median
            steady = name == "setup_s" or spread < bound / 3
            ok &= steady
            print(f"  {name:<14} median {median:12.4f}  spread {spread:7.2%}  "
                  f"bound {bound:5.0%}  {'ok' if steady else 'TOO WIDE'}")
        walls = [wall for _, wall in runs]
        q1, median, q3 = statistics.quantiles(walls, n=4)
        print(f"  {'cli_s wall':<14} median {median:12.4f}  spread {(q3 - q1) / median:7.2%}"
              "  (raw wall time, not bounded)")
        medians.append(set_medians)
    for name, bound in bounds.items():
        move = medians[1][name] / medians[0][name] - 1
        within = abs(move) <= bound
        ok &= within
        print(f"  {name:<14} second median moved {move:+7.2%} "
              f"({'ok' if within else 'BEYOND BOUND'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
