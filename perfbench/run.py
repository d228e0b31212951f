"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,query,recover} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from its
``src/`` directory.  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` runs the same workload with the layer wrappers installed
and prints every per-layer metric (a line before the result carries the
traced run's own end-to-end numbers, for the tracing overhead).  The last
line of standard output is always the JSON result.  Scratch data lives
under ``.perfbench-work/`` in the working directory and is removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "query", "recover")


def _load(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {src}")
    sys.path[:0] = [HERE, src]
    import common
    import ingest
    import query
    import recover

    return common, {"ingest": ingest, "query": query, "recover": recover}


def per_layer_names():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer"]], {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        # The seed fixes the hash layout too, so one seed repeats exactly
        # and a set of seeds spreads over layouts instead of one.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable] + sys.argv)

    root = os.getcwd()
    common, modules = _load(root)
    workdir = os.path.join(root, ".perfbench-work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tally = common.Tally()
    try:
        result = modules[args.workload].run(
            args.seed, args.seconds, bool(args.trace), workdir, tally=tally
        )
        correct = True
    except Exception as exc:
        # The operation in progress (or the final check over all of them)
        # failed; the run stops there and reports what it attempted.
        traceback.print_exc()
        correct = not isinstance(exc, common.CheckFailed)
        print(f"perfbench: {'operation' if correct else 'check'} failed: "
              f"{exc}", file=sys.stderr)
        result = {"attempted": max(1, tally.attempted), "failed": 1,
                  "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    e2e = {name: {"value": value, "unit": unit}
           for name, (value, unit) in result["metrics"].items()}
    if args.trace:
        print("traced end-to-end: " + json.dumps(e2e))
        names, units = per_layer_names()
        layers = result.get("layers", {})
        metrics = {name: {"value": layers.get(name, 0.0), "unit": units[name]}
                   for name in names}
    else:
        metrics = e2e
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
