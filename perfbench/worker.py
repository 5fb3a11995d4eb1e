"""One benchmark process: set up vlcsim, then run workload repetitions.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Both modes start in a fresh interpreter and first time the set-up a user
pays: importing vlcsim from ``src/`` and building and validating the
workload's configs. ``run`` then repeats the workload until the next
repetition would end after ``--seconds`` (at least twice), exporting each
table as CSV and JSON under ``--out``. With ``--trace 1`` repetitions
alternate untraced and traced, and the traced spans go to
``--out/spans.csv``. The last stdout line is one JSON document that
``run.py`` reads.
"""

import time

_START = time.perf_counter()  # set-up is timed from before the program import

import argparse
import csv
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# two repetitions at least: one to compare bytes against, and in a traced
# run one untraced and one traced
MIN_REPS = 2


def import_program():
    """Import vlcsim from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import vlcsim

    if Path(vlcsim.__file__).resolve().parent != SRC / "vlcsim":
        raise SystemExit(f"perfbench: imported vlcsim from {vlcsim.__file__}")
    return vlcsim


def setup(workload: str, seed: int):
    """Import the program and build one validated config per table."""
    vlcsim = import_program()
    cfgs = [vlcsim.loads_config(config_text(seed)) for _ in WORKLOADS[workload]]
    return vlcsim, cfgs, time.perf_counter() - _START


def run_rep(tables, cfgs, out_dir: Path, tracer=None, rep=0):
    """Run and export every table once; return (wall seconds, table records).

    A table that raises is recorded with its error and the rest still run.
    """
    from vlcsim import experiments

    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    start = time.perf_counter()
    for (preset, ensemble), cfg in zip(tables, cfgs):
        if tracer is not None:
            tracer.table = (rep, preset)
        csv_path = out_dir / f"{preset}.csv"
        json_path = out_dir / f"{preset}.json"
        t0 = time.perf_counter()
        error = None
        try:
            # looked up on the module each time, so a tracer's wrapper is used
            table = experiments.run_experiment(preset, cfg, ensemble=ensemble)
            experiments.export(table, csv_path, "csv")
            experiments.export(table, json_path, "json")
        except Exception as exc:
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        records.append({
            "preset": preset,
            "seconds": time.perf_counter() - t0,
            "error": error,
            "csv": str(csv_path),
            "json": str(json_path),
        })
    wall = time.perf_counter() - start
    for record in records:
        if record["error"] is None:
            data = Path(record["csv"]).read_bytes()
            record["csv_sha256"] = hashlib.sha256(data).hexdigest()
    return wall, records


def write_spans(path: Path, tracers):
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["rep", "table", "id", "parent", "name", "start_s", "end_s"])
        for tracer in tracers:
            origin = min((s[4] for s in tracer.spans), default=0.0)
            for sid, parent, table, name, start, end in sorted(tracer.spans):
                out.writerow([table[0], table[1], sid, parent, name,
                              f"{start - origin:.9f}", f"{end - origin:.9f}"])


def run(args):
    vlcsim, cfgs, setup_s = setup(args.workload, args.seed)
    import numpy
    import scipy

    tables = WORKLOADS[args.workload]
    out = Path(args.out)
    reps, tracers = [], []
    start = time.perf_counter()
    while True:
        k = len(reps)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            with tracing.Tracer() as tracer:
                wall, records = run_rep(tables, cfgs, out / f"rep{k}",
                                        tracer, k)
            tracers.append(tracer)
            layers = tracer.layer_metrics()
        else:
            wall, records = run_rep(tables, cfgs, out / f"rep{k}")
            layers = None
        reps.append({"traced": traced, "wall_s": wall, "tables": records,
                     "layers": layers})
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + wall > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracers:
        write_spans(out / "spans.csv", tracers)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "workers": cfgs[0].threads,
        "versions": {
            "vlcsim": vlcsim.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "reps": reps,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[2]}))
    else:
        run(args)


if __name__ == "__main__":
    main()
