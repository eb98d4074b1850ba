"""The workloads: inputs from a seed, set-up, and the measured loop.

Each workload drives only the program's public API
(``RBCDSystem.detect_frame``, ``CollisionService.submit``/``step``) and
hands it frames generated up front from the seed.  See
``BENCHMARK.json`` for why each workload exists and which layer each
one stresses.
"""

from __future__ import annotations

import copy
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from perfbench.host import children_cpu_s

DEFAULT_SEED = 1
PAPER_SCENES = ("cap", "crazy", "sleepy", "temple")

# paper-frames: the ROADMAP headline, the paper's 800x480 on four scenes.
# Each round renders one frame of every scene; the rounds are spread
# evenly over the animations.
PAPER_RESOLUTION = (800, 480)
PAPER_DETAIL = 2
PAPER_ROUNDS = 4
PAPER_LATENCY_LIMIT_MS = 3000.0  # about 2x the slowest scene at the seed

# serve-mixed: open loop against the service with production defaults.
# The rate and the limit are constants fixed at the seed commit (about
# 65% of the ~6 frames/s the service sustains with every frame
# admitted); they are never derived from the code under test.
SERVE_RESOLUTION = (320, 192)
SERVE_DETAIL = 1
SERVE_WORKERS = 2
SERVE_OFFERED_FPS = 3.9
SERVE_LATENCY_LIMIT_MS = 750.0
# Offered frames per tenant session.  At the seed a tenant is refused
# for good once its first watchdog alert fires, and whether (and when)
# that alert fires depends on the animation frame the tenant starts at.
# A run is therefore a stream of short sessions whose start frames are
# stratified over the animation (see setup_serve_mixed), so the mix of
# alerting and quiet starts is the same in every run.
SERVE_FRAMES_PER_SESSION = 2
SERVE_DRAIN_TIMEOUT_S = 60.0

SETUP_REPEATS = 3


# -- shared bookkeeping --------------------------------------------------------


@dataclass
class Sample:
    """One offered or rendered frame, as the caller saw it."""

    index: int           # input index (its digest and summary key)
    latency_s: float     # due (or call) to result; censored if not served
    served: bool         # a result arrived and matched its digest
    traced: bool = False


@dataclass
class Measured:
    """What one measured window produced."""

    samples: list[Sample]
    # Wall and CPU seconds (this process + workers) per offered frame:
    # closed loops take the median round, so a few rounds slowed by the
    # host do not move them; the open loop takes the whole window.
    frame_s: float
    frame_cpu_s: float
    window_s: float                # wall time of the window
    latency_limit_ms: float
    failed: int = 0                # raised or mismatched
    overhead_frac: float = 0.0     # traced vs untraced time per frame
    serve: dict = field(default_factory=dict)


class Prepared:
    """A set-up workload: the system under test and its inputs."""

    def __init__(self, config, inputs, latency_limit_ms, system, checker,
                 close, warmup_indices, service=None, offered_to=None):
        self.config = config
        self.inputs = inputs               # index -> Frame
        self.latency_limit_ms = latency_limit_ms
        self.system = system
        self.checker = checker
        self.close = close
        # One input per scene, rendered in the warm-up: the inputs that
        # are cross-checked on the reference backend and that the
        # modelled (sim_*) figures average over.
        self.warmup_indices = warmup_indices
        self.service = service
        self.offered_to = offered_to       # index -> tenant (serve only)


def _config(resolution):
    from repro.gpu.config import GPUConfig

    return GPUConfig().with_screen(*resolution)


# -- set-up ----------------------------------------------------------------------


def setup_paper_frames(seed: int, seconds: float, checker) -> Prepared:
    """Input ``k * 4 + s`` is round ``k`` of scene ``s``.

    The seed picks each scene's start time; its rounds are spread evenly
    over the whole animation from there, so every run samples the same
    stretch of each animation and the seed only shifts it.
    """
    from repro.core import RBCDSystem
    from repro.scenes.benchmarks import workload_by_alias

    config = _config(PAPER_RESOLUTION)
    rng = random.Random(seed)
    inputs = {}
    for s, alias in enumerate(PAPER_SCENES):
        workload = workload_by_alias(alias, detail=PAPER_DETAIL)
        start = rng.uniform(0.0, workload.duration_s)
        for k in range(PAPER_ROUNDS):
            t = (start + k * workload.duration_s / PAPER_ROUNDS) % workload.duration_s
            inputs[k * len(PAPER_SCENES) + s] = workload.scene.frame_at(t, config)
    system = RBCDSystem(config=config)
    first_round = list(range(len(PAPER_SCENES)))
    for index in first_round:  # warm-up: one frame per scene
        checker.check(index, system.detect_frame(inputs[index]))
    return Prepared(config, inputs, PAPER_LATENCY_LIMIT_MS, system, checker,
                    system.close, first_round)


def setup_serve_mixed(seed: int, seconds: float, checker) -> Prepared:
    from repro.core import RBCDSystem
    from repro.experiments.loadgen import plan_tenants
    from repro.serve import CollisionService

    config = _config(SERVE_RESOLUTION)
    scene_plans = plan_tenants(len(PAPER_SCENES), SERVE_DETAIL, seed)
    per_group = len(PAPER_SCENES) * SERVE_FRAMES_PER_SESSION
    groups = max(1, int(SERVE_OFFERED_FPS * seconds) // per_group)
    # Group g holds one session per scene, starting g frames after the
    # phase plan_tenants(seed) gives that scene: every 12 groups (the
    # animations' frame count) cover each start frame once, in an order
    # the seed sets.  Whole cycles of 12 keep the mix of starts, and so
    # the refused share, the same on every seed.
    cycle = max(plan.workload.default_frames for plan in scene_plans)
    if groups >= cycle:
        groups -= groups % cycle
    offered = groups * per_group
    sessions = []
    for g in range(groups):
        for s, base in enumerate(scene_plans):
            session = copy.copy(base)
            session.tenant = f"t{g * len(scene_plans) + s:02d}-{base.scene}"
            session.phase = base.phase + g
            sessions.append(session)

    inputs, offered_to = {}, {}
    for n in range(offered):
        group, j = divmod(n, per_group)
        seq, s = divmod(j, len(PAPER_SCENES))
        session = sessions[group * len(PAPER_SCENES) + s]
        inputs[n] = session.frame_at(seq, config)
        offered_to[n] = session.tenant

    service = CollisionService(
        workers=SERVE_WORKERS, executor_backend="process", base_config=config,
    )
    for session in sessions:
        service.register(session.tenant)
    # Warm-up on a system that shares the pool but not the tenants'
    # monitors, so it spins up the workers without feeding any tenant's
    # watchdog a frame the workload did not offer.
    warm = RBCDSystem(config=config, executor=service.executor)
    first = list(range(min(offered, len(PAPER_SCENES))))
    for n in first:
        checker.check(n, warm.detect_frame(inputs[n]))
    return Prepared(config, inputs, SERVE_LATENCY_LIMIT_MS, None, checker,
                    service.close, first, service=service,
                    offered_to=offered_to)


SETUPS = {
    "paper-frames": setup_paper_frames,
    "serve-mixed": setup_serve_mixed,
}


# -- measured loops ----------------------------------------------------------------


def run_closed_loop(prepared: Prepared, seconds: float, recorder=None) -> Measured:
    """One caller, next frame after the last: whole rounds of inputs.

    A round is one frame of each scene; the loop runs whole rounds so
    every scene contributes the same number of frames.  With a
    ``recorder`` every round runs twice, untraced then traced, and only
    the untraced frames count towards the end-to-end figures.
    """
    system, checker = prepared.system, prepared.checker
    round_size = len(PAPER_SCENES)
    rounds = [
        list(range(r, r + round_size))
        for r in range(0, len(prepared.inputs), round_size)
    ]
    samples: list[Sample] = []
    round_wall: dict[bool, list[float]] = {False: [], True: []}
    round_cpu: list[float] = []
    failed = 0
    started = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - started < seconds:
        for traced in ((False, True) if recorder is not None else (False,)):
            if traced:
                recorder.install()
            wall = cpu = 0.0
            for index in rounds[r % len(rounds)]:
                frame = prepared.inputs[index]
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    result = system.detect_frame(frame)
                except Exception:  # a raising frame is a failed frame
                    result = None
                t1 = time.perf_counter()
                c1 = time.process_time()
                ok = result is not None and checker.check(index, result)
                failed += not ok
                wall += t1 - t0
                cpu += c1 - c0
                samples.append(Sample(index, t1 - t0, ok, traced))
            round_wall[traced].append(wall)
            if traced:
                recorder.uninstall()
            else:
                round_cpu.append(cpu)
        r += 1
    window_s = time.perf_counter() - started
    overhead = 0.0
    if recorder is not None:
        overhead = sum(round_wall[True]) / sum(round_wall[False]) - 1.0
    return Measured(
        samples=[s for s in samples if not s.traced],
        frame_s=statistics.median(round_wall[False]) / round_size,
        frame_cpu_s=statistics.median(round_cpu) / round_size,
        window_s=window_s, latency_limit_ms=prepared.latency_limit_ms,
        failed=failed, overhead_frac=overhead,
    )


def run_open_loop(prepared: Prepared, seconds: float, recorder=None) -> Measured:
    """One generator on a fixed aggregate schedule, one dispatcher.

    Frame ``n`` is due at ``n / SERVE_OFFERED_FPS`` after the start and
    is timed from that due time until its future resolves.  With a
    ``recorder``, odd session groups run traced and even ones untraced;
    the dispatcher switches only between batches.
    """
    from repro.serve import AdmissionError

    service, checker = prepared.service, prepared.checker
    offered = len(prepared.inputs)
    per_group = len(PAPER_SCENES) * SERVE_FRAMES_PER_SESSION
    interval = 1.0 / SERVE_OFFERED_FPS
    # n -> (kind, time the outcome was known, refusal reason or None)
    outcomes: dict[int, tuple] = {}
    admitted_at: dict[int, float] = {}
    late: list[float] = []
    lock = threading.Lock()
    stop = threading.Event()
    dispatch = {"busy_s": 0.0, "batches": [], "per_frame": {False: [], True: []}}

    start = time.perf_counter() + 0.05

    def resolve(n, future):
        t = time.perf_counter()
        try:
            served = future.result()
        except Exception:
            with lock:
                outcomes[n] = ("failed", t, None)
            return
        ok = checker.check(n, served.result)
        with lock:
            outcomes[n] = ("served" if ok else "failed", t, None)

    def generator():
        for n in range(offered):
            due = start + n * interval
            delay = due - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)
            late.append(time.perf_counter() - due)
            try:
                future = service.submit(prepared.offered_to[n], prepared.inputs[n])
            except AdmissionError as exc:
                with lock:
                    outcomes[n] = ("refused", time.perf_counter(), exc.reason)
                continue
            admitted_at[n] = time.perf_counter()
            future.add_done_callback(lambda f, n=n: resolve(n, f))

    def dispatcher():
        traced = False
        while True:
            if recorder is not None:
                group = int((time.perf_counter() - start) * SERVE_OFFERED_FPS) // per_group
                want = group % 2 == 1
                if want != traced:
                    (recorder.install if want else recorder.uninstall)()
                    traced = want
            t0 = time.perf_counter()
            served = service.step()
            if served:
                t1 = time.perf_counter()
                dispatch["busy_s"] += t1 - t0
                dispatch["batches"].append(served)
                dispatch["per_frame"][traced].extend([(t1 - t0) / served] * served)
            elif stop.is_set():
                break
            else:
                time.sleep(0.001)
        if traced:
            recorder.uninstall()

    cpu0 = time.process_time() + children_cpu_s()
    gen = threading.Thread(target=generator, name="perfbench-generator")
    disp = threading.Thread(target=dispatcher, name="perfbench-dispatcher")
    disp.start()
    gen.start()
    gen.join()
    deadline = time.perf_counter() + SERVE_DRAIN_TIMEOUT_S
    while time.perf_counter() < deadline:
        with lock:
            if len(outcomes) == offered:
                break
        time.sleep(0.005)
    stop.set()
    disp.join()
    cpu_s = time.process_time() + children_cpu_s() - cpu0

    with lock:
        done = dict(outcomes)
    # The window closes when the last outcome is known.  A frame never
    # served counts as waiting the whole window: longer than any frame
    # that was served, and measured on this run.
    window_end = max(o[1] for o in done.values()) if done else time.perf_counter()
    samples = []
    for n in range(offered):
        kind, at, _ = done.get(n, ("lost", window_end, None))
        if kind == "served":
            latency = at - (start + n * interval)
        else:
            latency = window_end - start
        samples.append(Sample(n, latency, kind == "served"))
    failed = sum(1 for o in done.values() if o[0] == "failed")
    failed += offered - len(done)
    per_frame = dispatch["per_frame"]
    overhead = 0.0
    if per_frame[True] and per_frame[False]:
        overhead = (
            (sum(per_frame[True]) / len(per_frame[True]))
            / (sum(per_frame[False]) / len(per_frame[False])) - 1.0
        )
    refused = [o[2] for o in done.values() if o[0] == "refused"]
    return Measured(
        samples=samples, frame_s=(window_end - start) / offered,
        frame_cpu_s=cpu_s / max(sum(dispatch["batches"]), 1),
        window_s=window_end - start,
        latency_limit_ms=prepared.latency_limit_ms, failed=failed,
        overhead_frac=overhead,
        serve={
            "admitted_at": admitted_at,
            "late_s": late,
            "batches": dispatch["batches"],
            "busy_s": dispatch["busy_s"],
            "refused_unhealthy": refused.count("unhealthy"),
            "refused_backlog": refused.count("backlog"),
        },
    )


def run_workload(prepared: Prepared, seconds: float, recorder=None) -> Measured:
    if prepared.service is not None:
        return run_open_loop(prepared, seconds, recorder)
    return run_closed_loop(prepared, seconds, recorder)


def reference_render(prepared: Prepared, index: int):
    """Render one input on the ``reference`` kernel backend, serially."""
    from repro.core import RBCDSystem

    config = prepared.config.with_kernel_backend("reference")
    with RBCDSystem(config=config) as system:
        return system.detect_frame(prepared.inputs[index])
