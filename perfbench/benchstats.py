"""Arithmetic of the repository benchmark.

Turns the JSON lines printed by ``hsc_perfbench`` into the metrics
named in BENCHMARK.json.  Everything here is a pure function of those
lines so that ``test_benchstats.py`` can check it without building the
simulator.

Host times are scaled by a speed factor measured in the same process.
The hosts this runs on are shared, and neighbours slow the simulator by
up to 2x for minutes at a time.  The measuring program therefore runs a fixed
calibration slice after every simulation, for a tenth of that
simulation's time, and every host time is reported as seconds on a
host where the slice takes REF_SLICE_S.  Per-batch means, not medians,
are scaled: the calibration of one batch samples too little of its
time, while the run's pooled calibration tracks the contention the
whole run saw.  The unscaled batch time and the factor are per-layer
metrics (bench.raw_wall_s, bench.host_slowdown).
"""

import json
import statistics

# Counts read from StatRegistry, by per-layer metric name.
COUNT_METRICS = {
    "protocol.dir.requests": "dir.requests",
    "protocol.dir.probes_sent": "dir.probes_sent",
    "protocol.dir.stalls": "dir.stalls",
    "protocol.dir.set_conflict_retries": "dir.set_conflict_retries",
    "protocol.dir.llc_reads": "dir.llc_reads",
    "mem.reads": "mem.reads",
    "mem.writes": "mem.writes",
    "protocol.cpu.l2_misses": "cpu.l2_misses",
    "protocol.gpu.tcc_misses": "gpu.tcc_misses",
    "protocol.gpu.tcp_misses": "gpu.tcp_misses",
    "sim.checker.transitions": "checker.transitions",
    "sim.checker.blocks_shadowed": "checker.blocks_shadowed",
}

# Self time of each span, by per-layer metric name.
SELF_TIME_METRICS = {
    "core.construct_s": "construct",
    "workloads.setup_s": "setup",
    "core.run_s": "run",
    "workloads.verify_s": "verify",
    "trace.decode_s": "decode",
    "stats.readout_s": "stats",
    "bench.sim_self_s": "sim",
}

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

# The reference time of one calibration slice (measure.cc, Calibrator).
# Host times are reported in seconds on a host where a slice takes this
# long; the 4-vCPU Xeon this benchmark was defined on took 1.3-2.6 ms.
REF_SLICE_S = 0.0015


def parse_lines(text):
    """The JSON objects of hsc_perfbench's output, one per line."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def tail_percentile(values, beyond=TAIL_BEYOND):
    """The highest nearest-rank percentile with at least ``beyond``
    samples above it, as ``(percent, value)``; None when there are too
    few samples for any percentile to have that many beyond it."""
    xs = sorted(values)
    idx = len(xs) - beyond - 1
    if idx < 0:
        return None
    return 100.0 * (idx + 1) / len(xs), xs[idx]


def ratio(numerator, base):
    """numerator / base, 0 for an empty base (the base is reported
    beside every ratio, so a 0 base is visible)."""
    return numerator / base if base else 0.0


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    end = lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover.  Spans are dicts with sim, id, parent, name,
    t0 and t1; children are matched by (sim, parent)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault((s["sim"], s["parent"]), []).append(
                (s["t0"], s["t1"]))
    out = []
    for s in spans:
        kids = children.get((s["sim"], s["id"]), [])
        dur = s["t1"] - s["t0"]
        out.append((s, dur - covered_length(kids, s["t0"], s["t1"])))
    return out


def digest(sim):
    """What a simulation produced: a speed change must not alter it."""
    return (sim["label"], sim["cycles"], sim["events"], sim["image"])


def digest_mismatches(sims):
    """Simulations whose digest differs from the same simulation in the
    first batch.  ``sims`` are the sim records of one process,
    in any mix of batch kinds; every batch runs the same inputs."""
    batches = {}
    for s in sims:
        batches.setdefault(s["batch"], []).append(s)
    order = sorted(batches)
    if not order:
        return []
    ref = [digest(s) for s in batches[order[0]]]
    bad = []
    for b in order[1:]:
        got = [digest(s) for s in batches[b]]
        if len(got) != len(ref):
            bad.append((b, "batch size %d != %d" % (len(got), len(ref))))
            continue
        for want, have in zip(ref, got):
            if want != have:
                bad.append((b, "%s: %s != %s" % (want[0], have[1:],
                                                  want[1:])))
    return bad


def count_mismatches(sims):
    """Traced simulations whose StatRegistry counts differ between
    batches (simulated work counts repeat exactly)."""
    seen = {}
    bad = []
    for s in sims:
        prev = seen.setdefault(s["label"], s["counts"])
        if prev != s["counts"]:
            bad.append((s["batch"], s["label"]))
    return bad


def batch_sums(sims, key):
    """Per batch, the sum of ``key`` over its simulations."""
    out = {}
    for s in sims:
        out[s["batch"]] = out.get(s["batch"], 0) + s[key]
    return [out[b] for b in sorted(out)]


def first_batch_sum(sims, value):
    """Sum of ``value(sim)`` over the first batch of ``sims``: for the
    deterministic fields, which every batch repeats."""
    first = min(s["batch"] for s in sims)
    return sum(value(s) for s in sims if s["batch"] == first)


def by_mode(rows, kind, mode):
    return [r for r in rows if r["kind"] == kind and r["mode"] == mode]


def speed_factor(batches):
    """REF_SLICE_S over the mean calibration slice time of ``batches``:
    multiplies a host time measured in the same batches into seconds
    on a host running the calibration slice in REF_SLICE_S."""
    slices = sum(b["slices"] for b in batches)
    return REF_SLICE_S * slices / sum(b["calib_s"] for b in batches)


def timed_batches(rows):
    """Every batch but the warm-up."""
    return [r for r in rows if r["kind"] == "batch" and r["mode"] != "warmup"]


def end_to_end(rows):
    """The end-to-end metrics of an untraced run: per-batch means of
    the plain batches, scaled by the run's speed factor."""
    batches = by_mode(rows, "batch", "plain")
    sims = by_mode(rows, "sim", "plain")
    f = speed_factor(batches)
    setup = [c + s for c, s in zip(batch_sums(sims, "construct_s"),
                                   batch_sums(sims, "setup_s"))]
    attempted, failed = outcome(rows)
    peak = [r for r in rows if r["kind"] == "process"][0]["peak_rss_mb"]
    return {
        "wall_s": (f * mean([b["wall_s"] for b in batches]), "s"),
        "setup_s": (f * mean(setup), "s"),
        "run_s": (f * mean(batch_sums(sims, "run_s")), "s"),
        "peak_rss_mb": (peak, "MB"),
        "pass_ratio": (ratio(attempted - failed, attempted), "ratio"),
    }


def per_layer(rows):
    """The per-layer metrics of a traced run.  Host times are per-batch
    means scaled by the speed factor of all the run's timed batches."""
    plain = by_mode(rows, "sim", "plain")
    traced = by_mode(rows, "sim", "traced")
    checkoff = by_mode(rows, "sim", "checkoff")
    spans = [r for r in rows if r["kind"] == "span"]
    n_traced = len({s["batch"] for s in traced})
    f = speed_factor(timed_batches(rows))

    m = {}
    self_sum = {}
    for span, t in self_times(spans):
        self_sum[span["name"]] = self_sum.get(span["name"], 0.0) + t
    for metric, name in SELF_TIME_METRICS.items():
        m[metric] = (f * self_sum.get(name, 0.0) / n_traced, "s")

    m["core.construct_rss_mb"] = (
        max(s["footprint_mb"] for s in by_mode(rows, "sim", "warmup")), "MB")

    wall = {mode: mean([b["wall_s"] for b in by_mode(rows, "batch", mode)])
            for mode in ("plain", "traced")}
    m["bench.trace_overhead_s"] = (f * (wall["traced"] - wall["plain"]), "s")
    m["bench.raw_wall_s"] = (wall["plain"], "s")
    m["bench.host_slowdown"] = (1.0 / f, "ratio")
    m["bench.traced_batches"] = (n_traced, "count")

    events = first_batch_sum(traced, lambda s: s["events"])
    m["sim.events"] = (events, "count")
    m["sim.cycles"] = (first_batch_sum(traced, lambda s: s["cycles"]),
                       "cycles")
    m["sim.ns_per_event"] = (
        ratio(f * mean(batch_sums(traced, "run_s")) * 1e9, events), "ns")

    run_on = mean(batch_sums(plain, "run_s")) if checkoff else 0.0
    run_off = mean(batch_sums(checkoff, "run_s")) if checkoff else 0.0
    m["sim.checker.run_on_s"] = (f * run_on, "s")
    m["sim.checker.share"] = (1.0 - ratio(run_off, run_on) if run_on
                              else 0.0, "ratio")
    m["trace.records"] = (first_batch_sum(traced, lambda s: s["records"]),
                          "count")

    for metric, name in COUNT_METRICS.items():
        m[metric] = (first_batch_sum(traced, lambda s: s["counts"][name]),
                     "count")
    hits = first_batch_sum(traced, lambda s: s["counts"]["dir.llc_read_hits"])
    m["protocol.dir.llc_hit_ratio"] = (
        ratio(hits, m["protocol.dir.llc_reads"][0]), "ratio")

    per_sim = [f * 1e3 * (s["t1"] - s["t0"]) for s in spans
               if s["name"] == "sim"]
    tail = tail_percentile(per_sim)
    m["sim.samples"] = (len(per_sim), "count")
    m["sim.wall_ms.p50"] = (median(per_sim), "ms")
    m["sim.wall_ms.tail_pct"] = (tail[0] if tail else 0.0, "%")
    m["sim.wall_ms.tail"] = (tail[1] if tail else 0.0, "ms")
    return m


def outcome(rows):
    """(attempted, failed) over every simulation of the process."""
    sims = [r for r in rows if r["kind"] == "sim"]
    return len(sims), sum(1 for s in sims if not s["ok"])


def check(rows):
    """Problems that make the run incorrect: failed simulations,
    digests that differ between batches of any kind (warm-up, plain,
    traced and check-off batches run the same inputs), and counts that
    differ between traced batches."""
    sims = [r for r in rows if r["kind"] == "sim"]
    problems = ["%s: %s" % (s["label"], s["error"])
                for s in sims if not s["ok"]]
    problems += ["batch %s: %s" % p for p in digest_mismatches(sims)]
    problems += ["batch %s: %s counts differ" % p
                 for p in count_mismatches(by_mode(rows, "sim", "traced"))]
    return problems


def reference_digests(rows):
    """The digests of the first batch, for comparison across processes
    of the same code and seed."""
    sims = [r for r in rows if r["kind"] == "sim"]
    first = min(s["batch"] for s in sims)
    return [list(digest(s)) for s in sims if s["batch"] == first]
