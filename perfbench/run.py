"""Outside-in benchmark of the RBCD simulator: one workload, one run.

Run from the repository root::

    python3 perfbench/run.py --workload paper-frames --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` wraps the program's layer entry points
(``perfbench/layers.py``) and reports the per-layer metrics instead.
Both check every rendered frame.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``); the lines before it print the same
figures for a reader, with the host fingerprint and sample counts.
``--out FILE`` also saves the run as a document ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _interpolate(ranked: list[float], q: float) -> float:
    """The ``q`` quantile of already-ranked values (0.0 when empty)."""
    if not ranked:
        return 0.0
    pos = q * (len(ranked) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)


def _quantile(values, q: float) -> float:
    return _interpolate(sorted(values), q)


def _percentile(samples, q: float) -> float:
    """Latency percentile in ms; samples not served rank above all served."""
    served = sorted(s.latency_s for s in samples if s.served)
    floor = served[-1] if served else 0.0
    missed = sorted(max(s.latency_s, floor) for s in samples if not s.served)
    return _interpolate(served + missed, q) * 1e3


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end_metrics(prepared, measured, setup_times, peak_rss) -> dict:
    samples = measured.samples
    served = sum(1 for s in samples if s.served) / len(samples)
    in_limit = sum(
        1 for s in samples
        if s.served and s.latency_s * 1e3 <= measured.latency_limit_ms
    ) / len(samples)
    model = [prepared.checker.summaries[i] for i in prepared.warmup_indices]
    return {
        "setup_s": statistics.median(setup_times),
        "frames_per_s": served / measured.frame_s,
        "cpu_ms_per_frame": measured.frame_cpu_s * 1e3,
        "peak_rss_mb": peak_rss,
        "served_frac": served,
        "sim_gpu_cycles_per_frame": _mean(m.gpu_cycles for m in model),
        "sim_uj_per_frame": _mean(m.total_j * 1e6 for m in model),
        "latency_ms_p50": _percentile(samples, 0.50),
        "latency_ms_p90": _percentile(samples, 0.90),
        "slo_met_frac": in_limit,
        "goodput_fps": in_limit / measured.frame_s,
    }


def per_layer_metrics(prepared, measured, recorder, calibration, steal) -> dict:
    totals = recorder.totals()
    frames = max(len(recorder.roots()), 1)

    def ms(layer, kind="self_s"):
        return totals.get(layer, {}).get(kind, 0.0) * 1e3 / frames

    counts = recorder.counts
    model = [prepared.checker.summaries[i] for i in prepared.warmup_indices]
    insertions = sum(m.zeb_insertions for m in model)
    core_total = totals.get("core", {}).get("total_s", 0.0)
    pipeline_total = totals.get("gpu.pipeline", {}).get("total_s", 0.0)
    caches_s = totals.get("gpu.caches", {}).get("total_s", 0.0)
    raster_s = totals.get("gpu.raster", {}).get("total_s", 0.0)
    serve = measured.serve
    service_ms, queue_ms = [], []
    for _, _, _, t0, t1, _, _, label, _ in recorder.roots():
        if label is not None and label in serve.get("admitted_at", {}):
            service_ms.append((t1 - t0) * 1e3)
            queue_ms.append((t0 - serve["admitted_at"][label]) * 1e3)
    submit = totals.get("serve.submit", {})
    late_ms = [x * 1e3 for x in serve.get("late_s", [])]
    busy = serve.get("busy_s", 0.0)
    return {
        "gpu.raster.ms_per_frame": ms("gpu.raster"),
        "gpu.raster.ns_per_fragment":
            raster_s * 1e9 / max(counts.get("raster.fragments", 0), 1),
        "gpu.caches.ms_per_frame": ms("gpu.caches", "total_s"),
        "gpu.caches.accesses": _mean(m.cache_accesses for m in model),
        "gpu.caches.misses": _mean(m.cache_misses for m in model),
        "gpu.caches.ns_per_access":
            caches_s * 1e9 / max(counts.get("caches.accesses", 0), 1),
        "gpu.shading.ms_per_frame": ms("gpu.shading"),
        "gpu.tiling.bin_ms_per_frame": ms("gpu.tiling.bin"),
        "gpu.tiling.fetch_ms_per_frame": ms("gpu.tiling.fetch"),
        "gpu.assembly.ms_per_frame": ms("gpu.assembly"),
        "gpu.earlyz.ms_per_frame": ms("gpu.earlyz"),
        "gpu.fragment.ms_per_frame": ms("gpu.fragment"),
        "rbcd.compute_ms_per_frame": ms("rbcd.compute"),
        "rbcd.absorb_ms_per_frame": ms("rbcd.absorb"),
        "gpu.parallel.gather_ms_per_frame": ms("gpu.parallel.gather"),
        "gpu.parallel.run_ms_per_frame": ms("gpu.parallel.run"),
        "gpu.parallel.tasks_per_frame":
            counts.get("parallel.tasks", 0) / frames,
        "observability.monitor_ms_per_frame": ms("observability.monitor"),
        "energy.ms_per_frame": ms("energy"),
        "core.self_ms_per_frame": ms("core"),
        "gpu.pipeline.self_ms_per_frame": ms("gpu.pipeline"),
        "gpu.pipeline.named_frac":
            1.0 - ms("gpu.pipeline") * frames / 1e3 / pipeline_total
            if pipeline_total else 0.0,
        "trace.accounted_frac":
            recorder.request_self_s() / core_total if core_total else 0.0,
        "rbcd.fragments_in": _mean(m.rbcd_fragments_in for m in model),
        "rbcd.zeb_overflow_rate":
            sum(m.zeb_overflow_events for m in model) / insertions
            if insertions else 0.0,
        "rbcd.pairs_emitted": _mean(m.pairs_emitted for m in model),
        "serve.submit_us":
            submit.get("total_s", 0.0) * 1e6 / submit["calls"] if submit else 0.0,
        "serve.queue_wait_ms_p50": _quantile(queue_ms, 0.5),
        "serve.queue_wait_ms_p90": _quantile(queue_ms, 0.9),
        "serve.service_ms_p50": _quantile(service_ms, 0.5),
        "serve.batch_size_mean": _mean(serve.get("batches", [])),
        "serve.refused_unhealthy": serve.get("refused_unhealthy", 0),
        "serve.refused_backlog": serve.get("refused_backlog", 0),
        "serve.dispatcher_idle_frac":
            1.0 - busy / measured.window_s if serve else 0.0,
        "loadgen.late_ms_p90": _quantile(late_ms, 0.9),
        "loadgen.late_ms_max": max(late_ms, default=0.0),
        "trace.overhead_frac": measured.overhead_frac,
        "trace.frames": len(recorder.roots()),
        "host.calibration_ms": calibration,
        "host.steal_frac": steal,
    }


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also save the run as a JSON document")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        _fail(f"no program to measure: {SRC / 'repro'} or {spec_path} is missing")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; expected one of {workloads}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    sys.path.insert(0, str(ROOT))
    from perfbench import host

    host.pin_environment()
    sys.path.insert(0, str(SRC))
    from perfbench import check, layers, workloads as wl

    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    golden = check.load_golden(args.workload) if seed == wl.DEFAULT_SEED else None
    calibration_before = host.calibration_ms()

    setup_times, prepared = [], None
    for _ in range(wl.SETUP_REPEATS):
        if prepared is not None:
            # Free the last set-up before the next one, so peak memory
            # (and the pool workers forked from this process) hold one.
            prepared.close()
            prepared = None
        t0 = time.perf_counter()
        prepared = wl.SETUPS[args.workload](
            seed, args.seconds, check.Checker(golden)
        )
        setup_times.append(time.perf_counter() - t0)

    recorder = None
    if args.trace:
        frame_index = {id(f): n for n, f in prepared.inputs.items()}
        recorder = layers.SpanRecorder(
            label_of=lambda call_args: frame_index.get(id(call_args[1]))
        )
    try:
        steal0, ticks0 = host.cpu_ticks()
        measured = wl.run_workload(prepared, args.seconds, recorder)
        steal1, ticks1 = host.cpu_ticks()
        peak_rss = host.peak_rss_mb()
        checker = prepared.checker
        # Reference renders are attempts too: they can fail.
        references = prepared.warmup_indices if golden is None else []
        reference_failures = sum(
            not checker.check_reference(index, wl.reference_render(prepared, index))
            for index in references
        )
    finally:
        prepared.close()
    calibration = statistics.median([calibration_before, host.calibration_ms()])
    steal = (steal1 - steal0) / (ticks1 - ticks0) if ticks1 > ticks0 else 0.0

    failed = measured.failed + reference_failures
    correct = failed == 0 and not checker.mismatches
    if args.trace:
        values = per_layer_metrics(prepared, measured, recorder, calibration, steal)
        declared = spec["per_layer"]
        trace_path = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{seed}.json"
        recorder.write_chrome_trace(trace_path)
    else:
        values = end_to_end_metrics(prepared, measured, setup_times, peak_rss)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    extra = sorted(set(values) - set(names))
    missing = sorted(set(names) - set(values))
    if extra or missing:
        _fail(f"metrics out of step with BENCHMARK.json: extra {extra}, missing {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }

    fingerprint = host.fingerprint()
    served = sum(1 for s in measured.samples if s.served)
    print(f"workload {args.workload}  seed {seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(f"calibration_ms {calibration:.3f} (before {calibration_before:.3f}), "
          f"cpu steal {steal:.2%} of the window")
    print(f"samples {len(measured.samples)} offered/timed, {served} served, "
          f"{failed} failed, setup runs {len(setup_times)}")
    for message in checker.mismatches:
        print(f"MISMATCH {message}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6f} {entry['unit']}")
    result = {
        "correct": correct,
        "attempted": len(measured.samples) + len(references),
        "failed": failed,
        "metrics": metrics,
    }
    if args.out is not None:
        doc = dict(result, workload=args.workload, seed=seed,
                   seconds=args.seconds, trace=args.trace,
                   fingerprint=fingerprint, calibration_ms=calibration,
                   steal_frac=steal)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
