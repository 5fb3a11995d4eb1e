"""Per-layer spans and counts, recorded from outside the program.

A :class:`Tracer` replaces the public functions of each vlcsim layer with
timing wrappers, on the names the calling modules actually look up (for
example both ``vlcsim.experiments.cir_snapshot`` and
``vlcsim.stats.cir_snapshot``), and puts the originals back when its
``with`` block ends. Nothing under ``src/`` is edited.

A span is (id, parent id, table, name, start, end). Spans nest per
thread; a layer's self time is its span time minus that of its direct
child spans. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import weakref
from collections import Counter, defaultdict

PRESETS = (
    "acf-time",
    "bandwidth-fov",
    "ccf-space",
    "fcf-color",
    "pl-ci",
    "power-rotation-fov",
    "power-vs-distance",
    "rms-adr",
    "rms-patterns",
)

# per-layer counts and ratios of counts: they must repeat exactly for a seed
EXACT_METRICS = (
    "config.pattern_calls",
    "config.gamma_table_calls",
    "scene.builds",
    "scene.clusters_sampled",
    "scene.clusters_used_ratio",
    "channel.cirs",
    "channel.taps",
    "channel.candidate_rays",
    "channel.tap_yield",
    "experiments.export_bytes",
    "trace.spans",
)


def patch_points():
    """(owner, attribute, span name) for every name the tracer wraps."""
    from vlcsim import channel, config, experiments, scene, stats

    cfg = config.SimulationConfig
    return (
        (cfg, "pattern", "config.pattern"),
        (cfg, "gamma_table", "config.gamma_table"),
        (cfg, "merged", "config.merged"),
        (config, "config_hash", "config.hash"),
        (experiments, "config_hash", "config.hash"),
        (cfg, "build_scene", "scene.build"),
        (scene, "evolve_visibility", "scene.evolve_visibility"),
        (scene, "sample_cluster", "scene.sample_cluster"),
        (channel, "cir_snapshot", "channel.cir_snapshot"),
        (experiments, "cir_snapshot", "channel.cir_snapshot"),
        (stats, "cir_snapshot", "channel.cir_snapshot"),
        (experiments, "channel_over_time", "channel.channel_over_time"),
        (stats, "stfcf", "stats.stfcf"),
        (stats, "ctf", "stats.ctf"),
        (stats, "bandwidth_3db", "stats.bandwidth_3db"),
        (stats, "rms_delay_spread", "stats.rms_delay_spread"),
        (stats, "received_power", "stats.received_power"),
        (stats, "fit_ci", "stats.pathloss_fit"),
        (stats, "shadowing_stats", "stats.pathloss_fit"),
        (experiments, "ensemble_map", "experiments.ensemble_map"),
        (experiments, "export", "experiments.export"),
        (experiments, "run_experiment", "experiments.run_experiment"),
    )


class Tracer:
    """Context manager that traces one repetition of a workload."""

    def __init__(self):
        self._points = patch_points()
        self._originals: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.table: tuple[int, str] | None = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # per scene: clusters visible at any evaluated element
        self._used: dict[int, tuple] = {}
        # reentrant: a garbage collection inside _on_cir can run a scene's
        # finalizer, which takes the lock again
        self._lock = threading.RLock()

    # --- install / remove ---

    def __enter__(self) -> "Tracer":
        hooks = {
            "channel.cir_snapshot": self._on_cir,
            "experiments.export": self._on_export,
        }
        for owner, attr, name in self._points:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hooks.get(name)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        for key in list(self._used):
            self._used[key][1]()

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.table, name, start, end))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --- counters measured where the work happens ---

    def _on_cir(self, args, kwargs, cir):
        i, j, _p, scene = args[:4]
        mask = kwargs.get("visibility")
        if mask is None:
            mask = scene.visibility
        visible = mask[i - 1, j - 1]
        m = scene.distribution.scatterers_per_cluster
        with self._lock:
            self.counts["cirs"] += 1
            self.counts["taps"] += int(cir.powers.size)
            self.counts["candidate_rays"] += 1 + int(visible.sum()) * m
            key = id(scene)
            if key not in self._used:
                union = visible.copy()
                done = weakref.finalize(
                    scene, self._fold_used, key, union, scene.is_db, scene.partner)
                self._used[key] = (union, done)
            else:
                union = self._used[key][0]
                union |= visible

    def _fold_used(self, key, union, is_db, partner):
        # a visible double-bounce Tx cluster also uses its Rx partner
        rx_used = {int(k) for k in partner[union & is_db]}
        with self._lock:
            self.counts["clusters_used"] += int(union.sum()) + len(rx_used)
            del self._used[key]

    def _on_export(self, args, kwargs, _result):
        size = os.path.getsize(args[1])
        with self._lock:
            self.counts["export_bytes"] += size

    # --- reduction ---

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts of the traced repetition."""
        child = defaultdict(float)
        for sid, parent, _table, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        per_preset = defaultdict(float)
        for sid, _parent, table, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - child[sid]
            calls[name] += 1
            if name == "experiments.run_experiment":
                per_preset[table[1]] += end - start
        sampled = calls["scene.sample_cluster"]
        candidates = self.counts["candidate_rays"]
        cir_self = own["channel.cir_snapshot"]
        metrics = {
            "config.pattern_s": total["config.pattern"],
            "config.pattern_calls": calls["config.pattern"],
            "config.gamma_table_s": total["config.gamma_table"],
            "config.gamma_table_calls": calls["config.gamma_table"],
            "config.hash_s": total["config.hash"],
            "config.merged_s": total["config.merged"],
            "scene.build_s": own["scene.build"],
            "scene.builds": calls["scene.build"],
            "scene.evolve_visibility_s": total["scene.evolve_visibility"],
            "scene.sample_cluster_s": total["scene.sample_cluster"],
            "scene.clusters_sampled": sampled,
            "scene.clusters_used_ratio": (
                self.counts["clusters_used"] / sampled if sampled else 0.0),
            "channel.cir_snapshot_s": cir_self,
            "channel.channel_over_time_s": own["channel.channel_over_time"],
            "channel.cirs": self.counts["cirs"],
            "channel.taps": self.counts["taps"],
            "channel.candidate_rays": candidates,
            "channel.tap_yield": (
                self.counts["taps"] / candidates if candidates else 0.0),
            "channel.rays_per_s": candidates / cir_self if cir_self else 0.0,
            "stats.stfcf_s": own["stats.stfcf"],
            "stats.ctf_s": total["stats.ctf"],
            "stats.bandwidth_3db_s": total["stats.bandwidth_3db"],
            "stats.rms_delay_spread_s": total["stats.rms_delay_spread"],
            "stats.received_power_s": total["stats.received_power"],
            "stats.pathloss_fit_s": total["stats.pathloss_fit"],
            "experiments.ensemble_map_s": own["experiments.ensemble_map"],
            "experiments.export_s": total["experiments.export"],
            "experiments.export_bytes": self.counts["export_bytes"],
            "trace.spans": len(self.spans),
        }
        for preset in PRESETS:
            metrics[f"experiments.run_experiment_s.{preset}"] = per_preset[preset]
        return metrics
