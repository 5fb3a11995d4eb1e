"""Record the reference CSV hashes and shapes in reference.json.

    python3 perfbench/make_reference.py [SEED ...]

Runs every workload once per seed (default: the workloads' default seed
and 0-15) with the program in ``src/`` and rewrites reference.json. Run
it only for a deliberate re-baseline of the output bytes, and say so in
CHANGES.md; a change that claims a speed-up leaves this file alone.
"""

import json
import shutil
import sys
from pathlib import Path

from run import csv_shape
from worker import ROOT, import_program, run_rep
from workloads import DEFAULT_SEED, WORKLOADS, config_text

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [DEFAULT_SEED, *range(16)]
    vlcsim = import_program()
    work_dir = ROOT / ".bench_out" / "reference"
    hashes: dict[str, dict] = {}
    shapes: dict[str, dict] = {}
    for seed in seeds:
        for workload, tables in WORKLOADS.items():
            cfgs = [vlcsim.loads_config(config_text(seed)) for _ in tables]
            shutil.rmtree(work_dir, ignore_errors=True)
            _, records = run_rep(tables, cfgs, work_dir)
            for record in records:
                if record["error"] is not None:
                    raise SystemExit(f"seed {seed} {record['preset']}: {record['error']}")
                preset = record["preset"]
                shape = csv_shape(Path(record["csv"]).read_text(encoding="utf-8"))
                if shapes.setdefault(workload, {}).setdefault(preset, shape) != shape:
                    raise SystemExit(f"seed {seed} {preset}: shape {shape} changed")
                hashes.setdefault(str(seed), {}).setdefault(workload, {})[preset] = (
                    record["csv_sha256"])
            print(f"seed {seed} {workload} done", flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    doc = {"version": vlcsim.__version__, "shapes": shapes, "csv_sha256": hashes}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
