"""Record one change's benchmark trajectory entry, BENCH_<pr>.json, at the repo root.

    python3 tools/record_bench.py --pr N --parent HEAD --pairs 10

Runs ``python3 bench/run.py`` on every workload of ``BENCHMARK.json``, each
run lasting its ``run_seconds``, for two sides: the parent, a ``git archive``
of the ``--parent`` revision unpacked in a temporary directory, and the
change, the files of this checkout as they are, committed or not (so
``--parent HEAD`` measures the uncommitted change). Each side is named by a
sha256 of its ``src`` files. Per workload it makes ``--pairs`` pairs of
``--trace 0`` runs, the two sides of a pair sharing one seed and taking turns
to go first, then one ``--trace 1`` run per side. It writes, per side and
workload, each end-to-end metric's runs, median and quartiles, the failed and
attempted operations and the minor page faults of every run and the traced
run's per-layer metrics; and, per end-to-end metric, the change's median over
the parent's, the pairs the change won, the parent's interquartile range and
the acceptance rule (``compare``): whether a gain is shown and whether the
change stays within the metric's bound; and, under ``per_layer``, the
change's value over the parent's for each per-layer metric of the two traced
runs (``layer_ratios``). A run's minor page faults are those
of the ``bench/run.py`` process and its children, so a heap that keeps being
trimmed and grown again shows in the record and not only as a slower median.
Runs go one at a time: the benchmark's timings assume an otherwise idle
machine.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_LINES = 20  # how much of a failed run's stderr its error carries


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def unpack(rev, into):
    with tarfile.open(fileobj=BytesIO(git("archive", rev))) as tar:
        # the "data" filter exists from Python 3.12, 3.11.4 and 3.10.12 on
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def source_digest(root):
    """sha256 over the package's files, names and contents: which code a side ran."""
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def bench(side, root, workload, seed, seconds, trace):
    """One ``bench/run.py`` run of ``side`` (its checkout at ``root``) and its result line.

    A run that exits nonzero raises RuntimeError naming the side, the
    workload, the seed, the exit code and the last lines of its stderr.
    """
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    try:
        out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    except subprocess.CalledProcessError as e:
        tail = "\n".join(e.stderr.splitlines()[-STDERR_LINES:])
        raise RuntimeError(f"the {side}'s {workload} run (seed {seed}, trace {trace}) "
                           f"exited with {e.returncode}; its stderr ends:\n{tail}") from e
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["minor_faults"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def side_entry(runs, traced):
    names = runs[0]["metrics"]
    return {
        "end_to_end": {name: {"unit": runs[0]["metrics"][name]["unit"],
                              **summary([r["metrics"][name]["value"] for r in runs])}
                       for name in names},
        "correct": all(r["correct"] for r in runs + [traced]),
        "failed": [r["failed"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "minor_faults": [r["minor_faults"] for r in runs],
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
    }


def compare(parent, change, metrics):
    """Per end-to-end metric, the change against the parent and the acceptance rule.

    ``metrics`` maps each name to its ``BENCHMARK.json`` entry (``better``,
    ``bound``). ``gain_shown`` holds when the change won at least nine tenths
    of the pairs (a tie counts for neither side) and its median is better
    than the parent's by more than the parent's interquartile range,
    ``parent_iqr``. ``within_bound`` holds when the change's median is not
    worse than the parent's by more than ``bound`` times the parent's.
    """
    out = {}
    for name, metric in metrics.items():
        old = parent["end_to_end"][name]
        new = change["end_to_end"][name]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        wins = sum(sign * (n - o) > 0 for o, n in zip(old["runs"], new["runs"]))
        pairs = len(old["runs"])
        ratio = new["median"] / old["median"] if old["median"] else None
        iqr = old["q3"] - old["q1"]
        gain = sign * (new["median"] - old["median"])
        out[name] = {
            "change_over_parent": ratio,
            "pairs_won": wins,
            "pairs": pairs,
            "parent_iqr": iqr,
            "gain_shown": 10 * wins >= 9 * pairs and gain > iqr,
            "within_bound": -gain <= metric["bound"] * abs(old["median"]),
        }
    return out


def layer_ratios(parent, change):
    """Per per-layer metric of the two traced runs, the change's value over the parent's.

    A metric the parent reads 0 for, or that only one side reports, has None.
    """
    old, new = parent["per_layer"], change["per_layer"]
    return {name: new[name] / old[name] if old.get(name) and name in new else None
            for name in {**old, **new}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {
        "pr": args.pr,
        "command": spec["command"],
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "parent": {"rev": git("rev-parse", args.parent).decode().strip()},
        "change": {},
        "comparison": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp), "change": ROOT}
        unpack(args.parent, sides["parent"])
        for side, root in sides.items():
            result[side]["src_sha256"] = source_digest(root)
            result[side]["workloads"] = {}
        for w in [workload["name"] for workload in spec["workloads"]]:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(result["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(bench(side, sides[side], w, seed, seconds, 0))
                print(f"{w}: pair {i + 1}/{args.pairs}", file=sys.stderr, flush=True)
            for side, root in sides.items():
                traced = bench(side, root, w, args.seed, seconds, 1)
                result[side]["workloads"][w] = side_entry(runs[side], traced)
            parent, change = (result[side]["workloads"][w] for side in sides)
            result["comparison"][w] = {**compare(parent, change, metrics),
                                       "per_layer": layer_ratios(parent, change)}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
