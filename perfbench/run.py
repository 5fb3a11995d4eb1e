"""vlcsim benchmark: one measured run per workload and seed.

    python3 perfbench/run.py --workload single-link --seed 1 --seconds 30 --trace 0

Without ``--workload`` every workload runs in turn. Run from anywhere;
the program is imported from ``src/`` of the checkout that holds this
file. With ``--trace 0`` it prints the end-to-end metrics
of BENCHMARK.json (``wall_s``, ``setup_s``, ``peak_rss_mb``), with
``--trace 1`` the per-layer metrics. Every exported table is checked:
its CSV sha256 against ``reference.json`` when the seed is recorded
there, otherwise against the first repetition of the run (traced
repetitions included); its CSV header and row count against the
reference shape; its JSON against ``result_schema.json``. A table that
raises or fails a check counts in ``failed``. The last stdout line is the
JSON result; the full record goes to ``.bench_out/<run>/result.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

from tracing import EXACT_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "vlcsim"
SETUP_PROBES = 4  # fresh interpreters timed for set-up, besides the worker
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py with ``args``; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


# --- output checks ---

def csv_shape(text: str) -> dict:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return {"header": body[0] if body else "", "rows": max(len(body) - 1, 0)}


def table_problem(record, shape, expected_sha, schema) -> str | None:
    if record["error"] is not None:
        return record["error"]
    if record["csv_sha256"] != expected_sha:
        return "CSV bytes differ from the expected sha256"
    text = Path(record["csv"]).read_text(encoding="utf-8")
    if csv_shape(text) != shape:
        return f"CSV shape {csv_shape(text)} is not {shape}"
    doc = json.loads(Path(record["json"]).read_text(encoding="utf-8"))
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return f"JSON export fails the result schema: {exc.message}"
    if doc["experiment"] != record["preset"] or len(doc["rows"]) != shape["rows"]:
        return "JSON export does not match its table"
    return None


def check_tables(reps, workload, seed) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every table of every repetition."""
    reference = json.loads((HERE / "reference.json").read_text())
    schema = json.loads((PROGRAM / "data" / "result_schema.json").read_text())
    shapes = reference["shapes"][workload]
    recorded = reference["csv_sha256"].get(str(seed), {}).get(workload)
    first = {t["preset"]: t.get("csv_sha256") for t in reps[0]["tables"]}
    expected = recorded if recorded is not None else first
    attempted, problems = 0, []
    for k, rep in enumerate(reps):
        for record in rep["tables"]:
            attempted += 1
            preset = record["preset"]
            why = table_problem(record, shapes[preset], expected[preset], schema)
            if why is not None:
                problems.append(f"rep {k} {preset}: {why}")
    return attempted, len(problems), problems


# --- metrics ---

def end_to_end(doc, setup_samples) -> dict:
    walls = [r["wall_s"] for r in doc["reps"] if not r["traced"]]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(doc) -> tuple[dict, list[str]]:
    """Median times over traced repetitions; counts must agree exactly."""
    traced = [r for r in doc["reps"] if r["traced"]]
    untraced = [r for r in doc["reps"] if not r["traced"]]
    layers = [r["layers"] for r in traced]
    metrics, problems = {}, []
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name in EXACT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced reps: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    return metrics, problems


# --- machine facts ---

def cpu_facts() -> dict:
    facts = {"cpu_model": platform.processor() or platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}_cache"] = size
    return facts


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(doc) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **cpu_facts(),
        "python": platform.python_version(),
        **doc["versions"],
        "git_commit": git_commit(),
        "workers": doc["workers"],
    }


# --- main ---

def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    base = ["--workload", workload, "--seed", str(seed)]
    # set-up is an end-to-end metric, so a traced run does not probe it
    probes = 0 if trace else SETUP_PROBES
    setup_samples = [child(["setup", *base], deadline)["setup_s"]
                     for _ in range(probes)]
    doc = child(["run", *base, "--seconds", str(seconds),
                 "--trace", str(trace), "--out", str(out)], deadline)
    setup_samples.append(doc["setup_s"])

    attempted, failed, problems = check_tables(doc["reps"], workload, seed)
    if trace:
        metrics, count_problems = per_layer(doc)
        problems += count_problems
    else:
        metrics = end_to_end(doc, setup_samples)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "reps": len(doc["reps"]),
        "rep_wall_s": [[r["traced"], r["wall_s"]] for r in doc["reps"]],
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "machine": machine_facts(doc),
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record, wanted):
    """Print a run's summary lines, then its JSON result as the last line."""
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} reps={record['reps']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"failed_ratio={record['failed_ratio']:g}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    metrics = {}
    for metric in wanted:
        value = record["metrics"][metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric['name']:<48} {shown:>14} {metric['unit']}")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PROGRAM / "__init__.py").is_file():
        print(f"perfbench: no program source at {PROGRAM}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            record = measure(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(record, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
