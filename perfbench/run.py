"""hamloc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout, against ``src/hamloc`` there.
Each role runs in a process of its own (see ``worker.py``), one at a
time, with the content-addressed cache off.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` makes the traced run that gives the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 175


def _worker(role, args, deadline):
    env = {k: v for k, v in os.environ.items() if k != "HAMLOC_CACHE_DIR"}
    # the seed also fixes string hashing, so set iteration order repeats
    env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
    argv = [sys.executable, str(HERE / "worker.py"), role, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["roundtrip", "materialize", "certify"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hamloc" / "__init__.py").is_file():
        print(f"no hamloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            result = _worker("trace", args, deadline)
        else:
            setups = [_worker("setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = _worker("measure", args, deadline)
            result["metrics"]["setup_s"] = statistics.median(
                setups + [result["metrics"]["setup_s"]])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": result["units"][name]}
               for name, value in result["metrics"].items()}
    if _declared_metrics(args.trace) != {k: v["unit"] for k, v in metrics.items()}:
        print("metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    runs = ROOT / "perfbench-runs"
    runs.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=sys.version.split()[0])
    (runs / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
