"""The benchmark's workloads: which preset tables each one runs.

Each workload is a closed loop with a single client: it runs one table at
a time through ``vlcsim.experiments.run_experiment``, in the order listed,
and starts the next table only when the previous one is exported. The
master seed comes from the benchmark's ``--seed`` argument; no thread
count is passed, so the config default worker count applies.

Ensemble sizes keep one repetition of a workload to a few seconds on a
2-core machine, so that a 30 s run holds several repetitions. Why each
workload exists is written down in NOTES.md beside this file.
"""

WORKLOADS: dict[str, tuple[tuple[str, int], ...]] = {
    # many scenes, one evaluated element: config and scene construction
    "single-link": (
        ("rms-patterns", 15),
        ("rms-adr", 15),
        ("bandwidth-fov", 10),
        ("pl-ci", 3),
    ),
    # few scenes, every element at many instants: the channel kernel
    "full-array": (
        ("power-rotation-fov", 1),
        ("power-vs-distance", 2),
    ),
    # shifted single-link snapshots reduced on lag grids: stats.stfcf
    "correlation": (
        ("acf-time", 20),
        ("ccf-space", 20),
        ("fcf-color", 15),
    ),
}

# the master seed of vlcsim's default config
DEFAULT_SEED = 20220101


def config_text(seed: int) -> str:
    """YAML for the workload config: defaults with the given master seed."""
    return f"ensemble:\n  master_seed: {int(seed)}\n"
