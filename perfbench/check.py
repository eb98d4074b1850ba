"""Output checks: frame digests, recorded digests, reference cross-check.

A frame's digest covers what the simulator promises to reproduce bit
for bit: the sorted collision pairs, the modelled GPU cycles and joules
and the whole ``GPUStats`` counter registry.  For the default seed,
every rendered input is compared with the digest recorded from the
seed commit in ``golden.json``.  For any other seed, one input per
scene is rendered again, untimed, on the ``reference`` kernel backend,
which is bit-identical to the default backend by contract.  Every
input is also compared with its own first render, so a frame that
changes between repeats is caught on every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(result) -> str:
    """Digest of one :class:`repro.core.RBCDFrameResult`."""
    doc = [
        sorted(result.pairs),
        result.stats.gpu_cycles,
        result.energy.total_j,
        sorted(result.stats.registry().as_dict().items()),
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@dataclass(frozen=True)
class FrameSummary:
    """The modelled figures of one rendered input."""

    digest: str
    gpu_cycles: float
    total_j: float
    cache_accesses: int
    cache_misses: int
    rbcd_fragments_in: int
    zeb_insertions: int
    zeb_overflow_events: int
    pairs_emitted: int

    @classmethod
    def of(cls, result) -> "FrameSummary":
        s = result.stats
        return cls(
            digest=digest(result),
            gpu_cycles=float(s.gpu_cycles),
            total_j=float(result.energy.total_j),
            cache_accesses=int(
                s.vertex_cache_accesses + s.tile_cache_stores + s.tile_cache_loads
            ),
            cache_misses=int(
                s.vertex_cache_misses + s.tile_cache_store_misses
                + s.tile_cache_load_misses
            ),
            rbcd_fragments_in=int(s.rbcd_fragments_in),
            zeb_insertions=int(s.zeb_insertions),
            zeb_overflow_events=int(s.zeb_overflow_events),
            pairs_emitted=int(s.collision_pairs_emitted),
        )


def load_golden(workload: str) -> dict[int, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {int(k): v for k, v in doc["workloads"].get(workload, {}).items()}


class Checker:
    """Compares every rendered input with its expected digest.

    ``golden`` maps input index to the recorded digest (default seed
    only); inputs it does not cover are held to their first render.
    """

    def __init__(self, golden: dict[int, str] | None = None) -> None:
        self.golden = golden or {}
        self.summaries: dict[int, FrameSummary] = {}
        self.mismatches: list[str] = []

    def check(self, index: int, result) -> bool:
        summary = FrameSummary.of(result)
        first = self.summaries.setdefault(index, summary)
        expected = self.golden.get(index, first.digest)
        if summary.digest != expected or summary.digest != first.digest:
            self.mismatches.append(
                f"input {index}: digest {summary.digest[:12]} expected {expected[:12]}"
            )
            return False
        return True

    def check_reference(self, index: int, result) -> bool:
        """Compare a reference-backend render with the checked input."""
        got = digest(result)
        want = self.summaries[index].digest
        if got != want:
            self.mismatches.append(
                f"input {index}: reference backend {got[:12]} != {want[:12]}"
            )
            return False
        return True
