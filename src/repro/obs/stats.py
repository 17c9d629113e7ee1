"""Render a trace file into a summary: ``cerberus-py stats FILE``.

The summary answers the three questions the ROADMAP perf work keeps
asking — where does wall-clock go (per-phase timings), how warm are
the caches (per-kind store hit rates), and how fast is the explorer
(paths/sec, steps/sec) — from nothing but the JSON-lines trace
written by :func:`repro.obs.tracing` / ``--trace``."""

from __future__ import annotations

from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .trace import read_trace

#: Record kinds the store families report under ``store.<kind>.*``.
STORE_KINDS = ("compiled", "exploration", "statics", "record")


def summarize_trace(path) -> dict:
    """Digest one trace file into a JSON-able summary dict."""
    records = read_trace(path)
    meta = next((r for r in records if r.get("type") == "meta"), {})
    spans = [r for r in records if r.get("type") == "span"]
    timelines = [r for r in records if r.get("type") == "timeline"]

    # The final metrics record is authoritative for aggregates: it
    # contains every span the tracer saw *plus* the worker-side
    # metrics the farm merged in (workers collect metrics but do not
    # write trace files).  Span records remain the per-instance
    # detail.  A truncated trace (killed run) may have no metrics
    # record — then the spans alone are aggregated.
    merged = MetricsRegistry()
    for r in records:
        if r.get("type") == "metrics":
            merged.merge_dict(r.get("metrics"))
    metrics = merged.to_dict()
    counters = metrics["counters"]
    hists = metrics["histograms"]

    phases: Dict[str, dict] = {}
    for name, h in sorted(hists.items()):
        if not name.startswith("span.") or name.endswith(".cpu"):
            continue
        phase = name[len("span."):]
        cpu = hists.get(name + ".cpu", {})
        phases[phase] = {
            "count": h["count"],
            "wall_s": round(h["total"], 6),
            "mean_s": round(h["total"] / h["count"], 6),
            "max_s": round(h["max"], 6),
            "cpu_s": round(cpu.get("total", 0.0), 6),
        }
    if not phases:
        for s in spans:
            p = phases.setdefault(s["name"], {
                "count": 0, "wall_s": 0.0, "max_s": 0.0, "cpu_s": 0.0})
            p["count"] += 1
            p["wall_s"] = round(p["wall_s"] + s["wall_s"], 6)
            p["max_s"] = round(max(p["max_s"], s["wall_s"]), 6)
            p["cpu_s"] = round(p["cpu_s"] + s["cpu_s"], 6)
        for p in phases.values():
            p["mean_s"] = round(p["wall_s"] / p["count"], 6) \
                if p["count"] else 0.0

    def rate(hits, misses) -> Optional[float]:
        total = hits + misses
        return round(hits / total, 4) if total else None

    stores: Dict[str, dict] = {}
    for kind in STORE_KINDS:
        hits = counters.get(f"store.{kind}.hits", 0)
        misses = counters.get(f"store.{kind}.misses", 0)
        puts = counters.get(f"store.{kind}.stores", 0)
        corrupt = counters.get(f"store.{kind}.corrupt", 0)
        if hits or misses or puts or corrupt:
            stores[kind] = {"hits": hits, "misses": misses,
                            "stores": puts, "corrupt": corrupt,
                            "hit_rate": rate(hits, misses)}
    if counters.get("store.evictions"):
        stores["evictions"] = counters["store.evictions"]

    paths = counters.get("explore.paths", 0)
    explore_wall = hists.get("span.explore", {}).get("total", 0.0)
    steps = counters.get("driver.steps", 0)
    run_wall = hists.get("driver.run_s", {}).get("total", 0.0)
    explorer = {
        "paths": paths,
        "pruned": counters.get("explore.pruned", 0),
        "diverged": counters.get("explore.diverged", 0),
        "abandoned": counters.get("explore.abandoned", 0),
        "requeued": counters.get("explore.requeued", 0),
        "choice_points": counters.get("explore.choice_points", 0),
        "static_prune_skips":
            counters.get("explore.static_prune_skips", 0),
        "record_resumes": counters.get("explore.resumes", 0),
        "live_paths": counters.get("explore.live_paths", 0),
        "paths_per_s": round(paths / explore_wall, 1)
            if explore_wall > 0 else None,
        "steps": steps,
        "steps_per_s": round(steps / run_wall, 1)
            if run_wall > 0 else None,
    }

    pipeline = {
        "translations": counters.get("pipeline.translations", 0),
        "cache_hits": counters.get("pipeline.cache_hits", 0),
        "cache_misses": counters.get("pipeline.cache_misses", 0),
    }

    # The compiled back end's specialized-call-protocol hit rates and
    # lower-time fusion counts (compile.call_* / compile.fused.*).
    call_fast = counters.get("compile.call_fast", 0)
    call_generic = counters.get("compile.call_generic", 0)
    compiled = {
        "call_fast": call_fast,
        "call_generic": call_generic,
        "call_fast_rate": rate(call_fast, call_generic),
        "fused": {k.split(".", 2)[2]: v
                  for k, v in sorted(counters.items())
                  if k.startswith("compile.fused.")},
    }

    farm = {k.split(".", 1)[1]: v for k, v in sorted(counters.items())
            if k.startswith("farm.")}

    return {
        "trace": str(path),
        "run": meta.get("run") or (spans[0]["run"] if spans else None),
        "schema": meta.get("schema"),
        "spans": len(spans),
        "phases": phases,
        "stores": stores,
        "explorer": explorer,
        "pipeline": pipeline,
        "compiled": compiled,
        "farm": farm,
        "timelines": [{"name": t["name"], "points": t["points"]}
                      for t in timelines],
        "metrics": metrics,
    }


def render_text(summary: dict) -> str:
    """The human-readable form of :func:`summarize_trace`."""
    lines: List[str] = []
    lines.append(f"trace {summary['trace']}  run={summary['run']}  "
                 f"spans={summary['spans']}")
    if summary["phases"]:
        lines.append("")
        lines.append(f"{'phase':<24} {'count':>6} {'wall_s':>10} "
                     f"{'mean_s':>10} {'max_s':>10} {'cpu_s':>10}")
        for name, p in sorted(summary["phases"].items(),
                              key=lambda kv: -kv[1]["wall_s"]):
            lines.append(f"{name:<24} {p['count']:>6} "
                         f"{p['wall_s']:>10.4f} {p['mean_s']:>10.4f} "
                         f"{p['max_s']:>10.4f} {p['cpu_s']:>10.4f}")
    stores = summary["stores"]
    if stores:
        lines.append("")
        lines.append(f"{'store kind':<24} {'hits':>6} {'misses':>7} "
                     f"{'stores':>7} {'corrupt':>8} {'hit rate':>9}")
        for kind, s in sorted(stores.items()):
            if kind == "evictions":
                continue
            r = s["hit_rate"]
            lines.append(f"{kind:<24} {s['hits']:>6} {s['misses']:>7} "
                         f"{s['stores']:>7} {s['corrupt']:>8} "
                         f"{(f'{r:.2%}' if r is not None else '-'):>9}")
        if "evictions" in stores:
            lines.append(f"{'(evictions)':<24} {stores['evictions']:>6}")
    ex = summary["explorer"]
    if ex["paths"] or ex["steps"]:
        lines.append("")
        lines.append(
            f"explorer: {ex['paths']} paths "
            f"({ex['pruned']} pruned, {ex['diverged']} diverged, "
            f"{ex['abandoned']} abandoned, {ex['requeued']} requeued), "
            f"{ex['choice_points']} choice points, "
            f"{ex['static_prune_skips']} static-prune skips")
        pps = ex["paths_per_s"]
        sps = ex["steps_per_s"]
        lines.append(
            f"throughput: "
            f"{(f'{pps} paths/s' if pps is not None else 'paths/s -')}"
            f", {ex['steps']} steps"
            f"{f' ({sps} steps/s)' if sps is not None else ''}")
        if ex["record_resumes"] or ex["live_paths"]:
            lines.append(f"records: resumes={ex['record_resumes']} "
                         f"live paths={ex['live_paths']}")
    pl = summary["pipeline"]
    if any(pl.values()):
        lines.append("")
        lines.append(f"pipeline: translations={pl['translations']} "
                     f"cache hits={pl['cache_hits']} "
                     f"misses={pl['cache_misses']}")
    co = summary.get("compiled") or {}
    if co.get("call_fast") or co.get("call_generic") or co.get("fused"):
        lines.append("")
        r = co.get("call_fast_rate")
        lines.append(
            f"compiled: call fast={co['call_fast']} "
            f"generic={co['call_generic']}"
            f"{f' ({r:.2%} fast)' if r is not None else ''}")
        if co.get("fused"):
            lines.append("fused: " + "  ".join(
                f"{k}={v}" for k, v in sorted(co["fused"].items())))
    if summary["farm"]:
        lines.append("")
        lines.append("farm: " + "  ".join(
            f"{k}={v}" for k, v in summary["farm"].items()))
    for t in summary["timelines"]:
        if t["points"]:
            t_last, n_last = t["points"][-1]
            lines.append("")
            lines.append(f"timeline {t['name']}: {len(t['points'])} "
                         f"samples, {n_last} at t={t_last:.2f}s")
    return "\n".join(lines)
