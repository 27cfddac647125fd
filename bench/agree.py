"""Two-set agreement check: is the benchmark steady on this machine?

    python3 bench/agree.py --runs 10 [--workload canonical ...] [--seed-base 100]

For each workload it makes two sets of ``--runs`` untraced runs, each run
with its own seed, and reports per end-to-end metric:

- the spread of each set: the distance between the first and the third
  quartile (``statistics.quantiles(values, n=4)``) as a share of the median;
- how much worse the second set's median is than the first's, as a share
  of the first (negative when it is better).

A metric agrees when both spreads and the shift stay
within its bound in ``BENCHMARK.json``, and the share of failed operations
is exactly the same in every run. Exits 1 if anything disagrees. Raw
results go to ``bench/out/agree-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(bench, workload, seed):
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            seeds = [args.seed_base + s * args.runs + k for k in range(args.runs)]
            sets.append([run_once(bench, workload, seed) for seed in seeds])
        (BENCH / "out").mkdir(exist_ok=True)
        (BENCH / "out" / f"agree-{workload}.json").write_text(json.dumps(sets) + "\n")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"{workload}: correct={correct} failed share(s)={sorted(shares)}")
        ok = ok and correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            first, second = (statistics.median(v) for v in values)
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            spreads = [spread(v) for v in values]
            agrees = worse <= bound and max(spreads) <= bound
            ok = ok and agrees
            print(f"  {name:18s} median {first:12.6g} {second:12.6g}  worse {worse:+.4f}"
                  f"  spread {spreads[0]:.4f} {spreads[1]:.4f}  bound {bound}"
                  f"  {'ok' if agrees else 'DISAGREES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
