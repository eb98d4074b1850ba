"""The flight recorder is purely observational: attaching it changes nothing.

The acceptance bar for the black box, mirroring the tracer, provenance
and live-monitor differentials: with a :class:`FlightRecorder` attached
(its bounded tracer, a subscribed :class:`LiveMonitor`, and log capture
all live), every frame must produce bit-identical collision pairs,
contact records, counters and simulated cycles, at workers 1 and 4, on
all four benchmark scenes — and the recorder's ring contents themselves
must be deterministic modulo the wall-clock fields in
:data:`WALL_FIELDS`.
"""

import pytest

from repro.core import RBCDSystem
from repro.gpu.config import GPUConfig
from repro.observability.flightrecorder import (
    WALL_FIELDS,
    FlightRecorder,
    deterministic_events,
)
from repro.observability.live import LiveMonitor
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias


def config_for(workers: int) -> GPUConfig:
    config = GPUConfig().with_screen(160, 96)
    if workers != 1:
        config = config.with_executor(workers=workers, backend="thread")
    return config


def benchmark_frames(config: GPUConfig, alias: str, count: int = 3):
    workload = workload_by_alias(alias, detail=1)
    return [
        workload.scene.frame_at(float(t), config)
        for t in workload.times(count)
    ]


def result_fingerprint(result) -> dict:
    report = result.report
    return {
        "pairs": report.as_sorted_pairs(),
        "contacts": {
            (p.id_a, p.id_b): [(c.x, c.y, c.z_front, c.z_back) for c in pts]
            for p, pts in report.contacts.items()
        },
        "pair_records_written": report.pair_records_written,
        "stats": result.stats.as_dict(),
        "energy_total_j": (
            result.energy.total_j if result.energy is not None else None
        ),
    }


def run_stream(config, frames, recorder=None, monitor=None):
    with RBCDSystem(
        config=config, monitor=monitor, recorder=recorder
    ) as system:
        return [result_fingerprint(system.detect_frame(f)) for f in frames]


def run_recorded(config, frames, tmp_path):
    recorder = FlightRecorder(dump_dir=tmp_path)
    try:
        fingerprints = run_stream(
            config, frames,
            recorder=recorder, monitor=LiveMonitor(window=8),
        )
    finally:
        recorder.close()
    return fingerprints, recorder


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("alias", BENCHMARKS)
def test_recorder_changes_nothing(alias, workers, tmp_path):
    """Recorder-on == recorder-off, bit for bit, per scene and worker
    count — the full stack: bounded tracer, monitor feed, log capture."""
    config = config_for(workers)
    frames = benchmark_frames(config, alias)
    plain = run_stream(config, frames)
    recorded, recorder = run_recorded(config, frames, tmp_path)
    assert recorded == plain
    # The recorder actually saw the stream it did not perturb.
    stats = recorder.stats()
    assert stats["streams"]["default"]["snapshots"] == len(frames)
    assert stats["streams"]["default"]["spans"] > 0


def _comparable(records):
    """Ring contents minus wall clock and the global interleave counter
    (log volume may differ across configs; span/snapshot payloads must
    not)."""
    return [
        {k: v for k, v in record.items() if k != "seq"}
        for record in deterministic_events(records)
    ]


def test_ring_contents_deterministic_across_worker_counts(tmp_path):
    """Workers 1 and 4 record identical span and snapshot payloads."""
    docs = {}
    for workers in (1, 4):
        config = config_for(workers)
        frames = benchmark_frames(config, "cap")
        _, recorder = run_recorded(config, frames, tmp_path / str(workers))
        docs[workers] = recorder.document()
    one = docs[1]["streams"]["default"]
    four = docs[4]["streams"]["default"]
    assert _comparable(one["spans"]) == _comparable(four["spans"])
    assert _comparable(one["snapshots"]) == _comparable(four["snapshots"])
    assert one["counters"] == four["counters"]


def test_ring_contents_deterministic_across_repeat_runs(tmp_path):
    """Two identical recorded runs produce identical ring contents —
    including the sequence numbers (full deterministic_events view)."""
    rings = []
    for i in range(2):
        config = config_for(1)
        frames = benchmark_frames(config, "crazy")
        recorder = FlightRecorder(
            dump_dir=tmp_path / str(i), capture_logs=False
        )
        try:
            run_stream(
                config, frames,
                recorder=recorder, monitor=LiveMonitor(window=8),
            )
        finally:
            recorder.close()
        doc = recorder.document()
        stream = doc["streams"]["default"]
        rings.append({
            "spans": deterministic_events(stream["spans"]),
            "snapshots": deterministic_events(stream["snapshots"]),
            "alerts": deterministic_events(stream["alerts"]),
            "counters": stream["counters"],
        })
    assert rings[0] == rings[1]
    assert WALL_FIELDS  # the exclusions above are the entire allowance


def test_recorder_without_dump_dir_never_aborts_detection():
    """``RBCDSystem(recorder=FlightRecorder(), monitor=LiveMonitor())``
    on alerting crazy frames at 320x192: with no ``dump_dir`` the alert's
    auto-dump is counted as suppressed and every frame still returns the
    recorder-off result."""
    config = GPUConfig().with_screen(320, 192)
    frames = benchmark_frames(config, "crazy")
    plain = run_stream(config, frames)
    recorder = FlightRecorder()
    try:
        recorded = run_stream(
            config, frames, recorder=recorder, monitor=LiveMonitor()
        )
    finally:
        recorder.close()
    assert recorded == plain
    assert recorder.triggers.get("alert", 0) >= 1
    assert recorder.dumps_written == 0
    assert recorder.dumps_suppressed == recorder.triggers["alert"]
