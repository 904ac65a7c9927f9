"""The benchmark's four workloads.

Each workload drives the program only through its public entry points
(``harness.runner`` kernels and step sessions, ``rt.run.run_condition``,
``harness.suite.run_suite``) from a single process, and splits its work
into the same three parts:

* ``imports()`` and ``build(seed)`` — set-up: importing ``repro``,
  building every input, opening sessions, bringing the run's cache and
  result store to their starting state, and one untimed warm-up job;
* ``run(seconds, tracer)`` — the timed phase, returning a :class:`Phase`;
* checks of every output, outside the timed part of each job.

This module imports nothing from ``repro`` (or numpy) at import time, so
set-up is timed from before the program is imported.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Tracer, call
from speed import SpeedProbe

#: Count metrics are summed over this many leading jobs of the traced
#: phase, whose inputs depend only on the seed, so they repeat exactly.
COUNT_JOBS = 10


def job_seed(seed: int, index: int) -> int:
    """Input seed of job ``index`` of a run seeded with ``seed``."""
    return (seed * 1_000_003 + index * 7_919 + 17) % 2**31


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: List[float]
    busy_s: float
    #: Jobs completed, for ``jobs_per_s`` (suite-pool counts tasks).
    jobs: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    #: Factor from this run's machine speed to the reference speed.
    scale: float = 1.0
    #: Checks to make once every phase of the run has ended, if any.
    verify: Optional[Callable[[], None]] = None

    @property
    def jobs_per_s(self) -> float:
        """Raw throughput, at the speed the machine ran."""
        return self.jobs / self.busy_s

    def fail(self, reason: str, wrong: bool = True) -> None:
        print(f"FAILED: {reason}")
        self.failed += 1
        self.wrong += int(wrong)


def profiler_call_cost(calls: int = 20_000) -> float:
    """Seconds one ``PhaseProfiler.phase`` enter/exit costs, measured now."""
    from repro.harness.profiler import PhaseProfiler

    profiler = PhaseProfiler()
    t0 = time.perf_counter()
    for _ in range(calls):
        with profiler.phase("probe"):
            pass
    return (time.perf_counter() - t0) / calls


def closed_loop(
    seconds: float,
    job: Callable[[int], Any],
    check: Callable[[int, Any, Phase], None],
    tracer: Optional[Tracer],
) -> Phase:
    """Issue jobs back to back until they have run for ``seconds``.

    Each job's output is checked right after it completes, outside its
    timed span, so that outputs need not be held until the end; the
    speed probe runs there too.  The phase's time is the summed job
    time: the wall time of the loop less the checks and probes.
    """
    probe = SpeedProbe()
    phase = Phase(latencies=[], busy_s=0.0)
    index = 0
    while phase.busy_s < seconds:
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            output = job(index)
        except Exception as exc:  # one failed operation; the run goes on
            phase.busy_s += time.perf_counter() - t0
            phase.attempted += 1
            phase.fail(f"job {index} raised {exc!r}", wrong=False)
            index += 1
            continue
        elapsed = time.perf_counter() - t0
        phase.busy_s += elapsed
        phase.latencies.append(elapsed)
        phase.attempted += 1
        check(index, output, phase)
        probe.sample()
        index += 1
    phase.jobs = len(phase.latencies)
    phase.scale = probe.scale()
    return phase


# -- plan-grid ---------------------------------------------------------------


class PlanGrid:
    """Closed loop; one job is one fresh seeded map set, planned once by
    each grid planner (pp2d and pp3d on the flat-array core, movtar)."""

    name = "plan-grid"
    KERNELS = (
        ("pp2d", "04.pp2d", dict(rows=96, cols=96, backend="array")),
        ("pp3d", "05.pp3d", dict(nx=40, ny=40, nz=12, backend="array")),
        ("movtar", "06.movtar", dict(rows=24, cols=24, horizon=32, backend="array")),
    )

    def imports(self) -> None:
        from repro.harness.profiler import PhaseProfiler
        from repro.harness.runner import load_all_kernels, registry

        load_all_kernels()
        self.profiler_cls = PhaseProfiler
        self.kernels = [
            (label, registry.get(name)(), params)
            for label, name, params in self.KERNELS
        ]

    def trace_targets(self, tracer: Tracer) -> None:
        import repro.planning.moving_target as movtar
        import repro.planning.pp2d as pp2d
        import repro.planning.pp3d as pp3d
        import repro.search.grid_core as grid_core

        for owner, attr in (
            (pp2d, "astar_grid_2d"),
            (pp3d, "astar_grid_3d"),
            (grid_core, "astar_flat"),
            (movtar, "weighted_astar"),
            (grid_core, "dijkstra_grid_bucketed"),
        ):
            tracer.target(owner, attr, f"search.{attr}", "search")
        tracer.target(
            movtar, "backward_dijkstra_grid", "search.backward_dijkstra", "search"
        )
        tracer.target(
            pp2d, "oriented_footprints_collide_batch",
            "geometry.collision", "geometry.collision",
        )

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self._job(-1)  # warm-up: first calls, lazy imports, allocator

    def _job(self, index: int) -> List[Tuple[str, Any, Any, Any, Any]]:
        tracer = self.tracer
        outputs = []
        for label, kernel, params in self.kernels:
            config = kernel.config_cls(seed=job_seed(self.seed, index), **params)
            profiler = self.profiler_cls()
            state = call(tracer, "envs.build", "envs", kernel.setup, config)
            result = call(
                tracer, f"planning.{label}", "planning",
                kernel.run_roi, config, state, profiler,
            )
            outputs.append((label, config, state, result, profiler))
        return outputs

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        import checks

        self.tracer = tracer
        checkers = {
            "pp2d": checks.check_pp2d,
            "pp3d": checks.check_pp3d,
            "movtar": checks.check_movtar,
        }
        counters: List[Dict[str, int]] = []
        calls: List[int] = []

        def check(index: int, outputs: Any, phase: Phase) -> None:
            totals: Dict[str, int] = {}
            reasons = [
                checkers[label](state, config, result)
                for label, config, state, result, _ in outputs
            ]
            if any(reasons):
                phase.fail(f"job {index}: {'; '.join(filter(None, reasons))}")
            for *_, profiler in outputs:
                for name, n in profiler.counters.items():
                    totals[name] = totals.get(name, 0) + n
            counters.append(totals)
            calls.append(
                sum(st.calls for *_, p in outputs for st in p.stats.values())
            )

        phase = closed_loop(seconds, self._job, check, tracer)
        calls_per_job = statistics.fmean(calls)
        phase.layers = {
            "harness.profiler.calls_per_job": calls_per_job,
            "harness.profiler.overhead_ms_per_job": (
                calls_per_job * profiler_call_cost() * 1e3
            ),
        }
        if tracer is not None:
            phase.layers.update(self._layers(tracer, phase, counters))
        return phase

    def _layers(self, tracer: Tracer, phase: Phase, counters) -> Dict[str, float]:
        jobs = len(phase.latencies)
        head = counters[:COUNT_JOBS]
        expansions = sum(c.get("astar_expansions", 0) for c in counters)
        search_s = tracer.self_time("search")
        return {
            "planning.pp2d_ms": tracer.per_job_median("planning.pp2d") * 1e3,
            "planning.pp3d_ms": tracer.per_job_median("planning.pp3d") * 1e3,
            "planning.movtar_ms": tracer.per_job_median("planning.movtar") * 1e3,
            "search.self_s": search_s / jobs,
            "search.expansions": sum(c.get("astar_expansions", 0) for c in head),
            "search.pushes": sum(c.get("search_pushes", 0) for c in head),
            "search.ns_per_expansion": search_s / expansions * 1e9,
            "search.heuristic_ms": (
                tracer.per_job_median("search.backward_dijkstra") * 1e3
            ),
            "geometry.collision_s": tracer.self_time("geometry.collision") / jobs,
            "geometry.collision_cell_checks": sum(
                c.get("collision_cell_checks", 0) for c in head
            ),
            "envs.build_s": tracer.self_time("envs") / jobs,
        }


# -- perceive-step -----------------------------------------------------------


class PerceiveStep:
    """Closed loop; one job is one sensor frame: one ``step()`` on each
    open session of pfl, srec and ekfslam.  An exhausted session is
    finalized and reopened on the next workload of its pool."""

    name = "perceive-step"
    KERNELS = (
        ("pfl", "01.pfl", dict(backend="vectorized", particles=1000)),
        ("srec", "03.srec", dict(backend="vectorized", frames=12, scan_points=300, scene_points=1200)),
        ("ekfslam", "02.ekfslam", dict(landmarks=20)),
    )
    #: Workloads per kernel; episodes cycle through them.  pfl's five are
    #: the paper's five building regions, each in its own seeded map; the
    #: others differ by seed.  More workloads per run make a run's figures
    #: depend less on which few inputs its seed drew: one map cost up to
    #: 30% more per pfl step than another.
    POOL = {"pfl": 5, "srec": 12, "ekfslam": 4}

    def imports(self) -> None:
        from repro.harness.profiler import PhaseProfiler
        from repro.harness.runner import load_all_kernels, registry

        load_all_kernels()
        self.profiler_cls = PhaseProfiler
        self.kernels = [
            (label, registry.get(name)(), params)
            for label, name, params in self.KERNELS
        ]

    def trace_targets(self, tracer: Tracer) -> None:
        from importlib import import_module

        # ``repro.perception`` re-exports the function ``icp`` under the
        # name of its module, so the modules are looked up by path.
        icp = import_module("repro.perception.icp")
        scene_recon = import_module("repro.perception.scene_recon")
        lidar = import_module("repro.sensors.lidar")

        tracer.target(
            lidar, "cast_rays_dda_batch", "geometry.raycast", "geometry.raycast"
        )
        tracer.target(
            icp, "nearest_neighbors_batch", "geometry.kdtree", "geometry.kdtree"
        )
        tracer.target(scene_recon, "icp", "perception.icp", "perception.icp")

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.pools: Dict[str, List[Tuple[Any, Any]]] = {}
        for label, kernel, params in self.kernels:
            pool = []
            for i in range(self.POOL[label]):
                if label == "pfl":
                    config = kernel.config_cls(seed=job_seed(seed, i), region=i, **params)
                else:
                    config = kernel.config_cls(seed=job_seed(seed, i), **params)
                state = call(tracer, "envs.build", "envs", kernel.setup, config)
                pool.append((config, state))
            self.pools[label] = pool
        self._open()
        self._frame(None)  # warm-up frame
        self._open()

    def _open(self) -> None:
        """Open a session per kernel on the first workload of its pool."""
        self.sessions: Dict[str, Any] = {}
        self.episodes: Dict[str, int] = {}
        self.finished: List[Tuple[str, Any, Any]] = []
        for label, kernel, _ in self.kernels:
            config, state = self.pools[label][0]
            self.sessions[label] = kernel.open_session(
                config, state=state, profiler=self.profiler_cls()
            )
            self.episodes[label] = 0

    def _frame(self, tracer: Optional[Tracer]) -> None:
        for label, kernel, _ in self.kernels:
            session = self.sessions[label]
            if session.exhausted:
                call(
                    tracer, "perception.reopen", "perception",
                    self._reopen, label, kernel, session,
                )
            call(
                tracer, f"perception.{label}_step", "perception",
                self.sessions[label].step,
            )

    def _reopen(self, label: str, kernel: Any, session: Any) -> None:
        self.finished.append((label, session.state, session.finish()))
        self.episodes[label] += 1
        pool = self.pools[label]
        config, state = pool[self.episodes[label] % len(pool)]
        self.sessions[label] = kernel.open_session(
            config, state=state, profiler=session.profiler
        )

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        import checks

        self._open()
        snapshot: Dict[str, int] = {}

        def check(index: int, _: Any, phase: Phase) -> None:
            srec = self.sessions["srec"]
            scan = srec.state.scans[srec.steps_done - 1]
            reason = checks.check_srec_frame(
                scan, srec.payload["recon"].poses[-1], srec.payload["pose_errors"][-1]
            )
            for label, state, output in self.finished:
                if label == "pfl":
                    reason = reason or checks.check_pfl(state, output)
                elif label == "ekfslam":
                    reason = reason or checks.check_ekfslam(state, output)
            self.finished.clear()
            if reason:
                phase.fail(f"frame {index}: {reason}")
            if index == COUNT_JOBS - 1:
                for session in self.sessions.values():
                    for name, n in session.profiler.counters.items():
                        snapshot[name] = snapshot.get(name, 0) + n

        phase = closed_loop(seconds, lambda i: self._frame(tracer), check, tracer)
        if tracer is not None:
            frames = len(phase.latencies)
            phase.layers = {
                "perception.pfl_step_ms": (
                    tracer.per_job_median("perception.pfl_step") * 1e3
                ),
                "perception.srec_step_ms": (
                    tracer.per_job_median("perception.srec_step") * 1e3
                ),
                "perception.ekfslam_step_ms": (
                    tracer.per_job_median("perception.ekfslam_step") * 1e3
                ),
                "perception.reopen_ms": (
                    tracer.per_job_median("perception.reopen") * 1e3
                ),
                "geometry.raycast_s": tracer.self_time("geometry.raycast") / frames,
                "geometry.raycast_cell_checks": snapshot.get("raycast_cell_checks", 0),
                "geometry.kdtree_s": tracer.self_time("geometry.kdtree") / frames,
                "geometry.kdtree_node_visits": snapshot.get("nn_node_visits", 0),
                "perception.icp_self_s": tracer.self_time("perception.icp") / frames,
                "envs.build_s": tracer.self_time("envs", jobs_from=-1),
            }
        return phase


# -- control-rt --------------------------------------------------------------


def _control_tick_kernel() -> Any:
    """A steppable kernel whose one step is one control tick: one 14.mpc
    step and one 13.dmp step, each on its own persistent session."""
    from repro.harness.runner import Kernel, registry

    class ControlTick(Kernel):
        name = "control-tick"
        stage = "control"

        def __init__(self) -> None:
            self.subs = [("mpc", registry.get("14.mpc")()), ("dmp", registry.get("13.dmp")())]
            self.tracer: Optional[Tracer] = None
            self.payload: Dict[str, Any] = {}

        def begin_roi(self, config, state, profiler):
            self.payload = {"finished": [], "episodes": {}, "sessions": {}}
            for label, kernel in self.subs:
                self.payload["episodes"][label] = 0
                self.payload["sessions"][label] = kernel.open_session(
                    kernel.config_cls(), state=state[label][0], profiler=profiler
                )
            return self.payload

        def num_steps(self, config, state) -> int:
            return 2**62  # ticks run until the scheduler stops releasing

        def step(self, index, session, profiler) -> None:
            tracer = self.tracer
            if tracer is not None:
                tracer.job = index
            for label, kernel in self.subs:
                sub = self.payload["sessions"][label]
                if sub.exhausted:
                    self.payload["finished"].append((label, sub.state, sub.finish()))
                    self.payload["episodes"][label] += 1
                    pool = session.state[label]
                    sub = self.payload["sessions"][label] = kernel.open_session(
                        kernel.config_cls(),
                        state=pool[self.payload["episodes"][label] % len(pool)],
                        profiler=profiler,
                    )
                call(tracer, f"control.{label}_tick", "control", sub.step)

    return ControlTick()


class ControlRt:
    """Open loop; ``PeriodicScheduler`` releases one control tick every
    :attr:`PERIOD_MS` through ``run_condition`` at granularity ``step``."""

    name = "control-rt"
    #: A tick takes 4 to 5 ms on a 2-CPU x86-64 VM, so ticks take about
    #: half of each period and a tick ends before the next release even
    #: when the host runs a third slower.  Closer periods let the p90
    #: follow the host's speed through overruns.
    PERIOD_MS = 8.0
    WARMUP = 20
    POOL = 3
    #: Idle time a release must leave before the speed probe may use it.
    PROBE_SLACK_S = 2e-3

    def imports(self) -> None:
        import repro.rt.run as rt_run
        from repro.harness.config import KernelConfig
        from repro.harness.runner import load_all_kernels

        load_all_kernels()
        self.rt_run = rt_run
        self.config = KernelConfig()
        self.tick = _control_tick_kernel()

    def trace_targets(self, tracer: Tracer) -> None:
        pass  # spans come from the tick kernel's own calls

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        import numpy as np

        from repro.control.dmp import demonstration_trajectory
        from repro.control.mpc import reference_trajectory

        rng = np.random.default_rng(job_seed(seed, 0))
        self.inputs = {
            "mpc": [
                reference_trajectory(150, 0.1, 8.0, float(rng.uniform(0.15, 0.45)))
                for _ in range(self.POOL)
            ],
            "dmp": [
                demonstration_trajectory(200, 0.01)
                * rng.uniform([0.5, 0.5], [1.5, 2.0])
                for _ in range(self.POOL)
            ],
        }
        self._schedule(jobs=self.WARMUP, warmup=0, probe=None)  # warm-up

    def _schedule(self, jobs: int, warmup: int, probe: Optional[SpeedProbe]):
        """One ``run_condition``; returns its summary and schedule.

        The scheduler is the program's own, given two things through its
        public interface: a subclass that keeps the per-job records
        ``run_condition`` drops, and the wait between releases.  The wait
        spins instead of sleeping, as a real-time loop that owns its core
        would: on the virtual machines this was measured on, a sleeping
        vCPU woke late on many releases, and the p90 response followed
        the host (5 to 12 ms over runs of the same code) rather than the
        program.  The speed probe runs at the start of each wait long
        enough to hold it.
        """
        rt_run = self.rt_run
        captured = []
        base = rt_run.PeriodicScheduler
        slack = self.PROBE_SLACK_S

        def sleep(duration: float) -> None:
            wake = time.monotonic() + duration
            if probe is not None and duration > slack:
                probe.sample()
            while time.monotonic() < wake:
                pass

        class Capturing(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, sleep=sleep, **kwargs)

            def run(self, *args, **kwargs):
                captured.append(super().run(*args, **kwargs))
                return captured[-1]

        period_s = self.PERIOD_MS / 1e3
        rt_run.PeriodicScheduler = Capturing
        try:
            summary = rt_run.run_condition(
                self.tick, self.config, period_s, period_s, jobs=jobs,
                warmup=warmup, overrun="skip", granularity="step",
                state=self.inputs,
            )
        finally:
            rt_run.PeriodicScheduler = base
        return summary, captured[0]

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        import checks

        self.tick.tracer = tracer
        jobs = max(100, int(seconds * 1e3 / self.PERIOD_MS))
        probe = SpeedProbe()
        summary, schedule = self._schedule(jobs=jobs, warmup=self.WARMUP, probe=probe)
        self.tick.tracer = None
        records = schedule.measured()
        phase = Phase(
            latencies=[r.response_s for r in records],
            busy_s=sum(r.latency_s for r in records),
            jobs=len(records),
            attempted=len(records),
            scale=probe.scale(),
        )
        payload = self.tick.payload
        for label, inputs, output in payload["finished"]:
            if label == "mpc":
                reason = checks.check_mpc(inputs, output["states"])
            else:
                reason = checks.check_dmp(inputs, output["trajectory"])
            if reason:
                phase.fail(reason)
        tracking = payload["sessions"]["mpc"].payload["tracking"]
        reason = checks.check_mpc(tracking.reference, tracking.driven)
        if reason:
            phase.fail(reason)
        phases = summary["phase_breakdown"]["phases"]
        calls = sum(p["calls"] for p in phases.values()) / (jobs + self.WARMUP)
        optimize = phases.get("optimize", {"mean_ms": 0.0, "calls": 0})
        lateness = sorted(r.jitter_s for r in records)
        wall = records[-1].end_s - records[0].release_s
        phase.layers = {
            "harness.profiler.calls_per_job": calls,
            "harness.profiler.overhead_ms_per_job": (
                calls * profiler_call_cost() * 1e3
            ),
            "control.optimize_s": (
                optimize["mean_ms"] * optimize["calls"] / 1e3 / (jobs + self.WARMUP)
            ),
            "rt.release_lateness_p90_ms": lateness[int(0.9 * (len(lateness) - 1))] * 1e3,
            "rt.busy_share": phase.busy_s / wall,
            "rt.deadline_misses": summary["misses"],
            "rt.skipped_releases": summary["skipped_releases"],
        }
        if tracer is not None:
            phase.layers.update(
                {
                    "control.mpc_tick_ms": tracer.per_job_median("control.mpc_tick") * 1e3,
                    "control.dmp_tick_ms": tracer.per_job_median("control.dmp_tick") * 1e3,
                }
            )
        return phase


# -- suite-pool --------------------------------------------------------------


class SuitePool:
    """Closed loop of ``run_suite`` passes, each called the way
    ``rtrbench suite --smoke -j 2 --filter '[cb]*[!ad]'`` calls it, with its
    record saved into the run's own result store.  One job is one pass;
    one operation is one suite task."""

    name = "suite-pool"
    JOBS = 2
    #: The smoke list's characterization and bench tasks, less the two
    #: search benches (the only names ending in ``a`` or ``d``), whose
    #: time swings up to 90x with the seed's start and goal.  No rt tasks:
    #: their sleeps and self-calibrated periods track the machine.
    FILTER = "[cb]*[!ad]"
    TASKS = (
        "characterize:02.ekfslam", "characterize:11.sym-blkw",
        "characterize:12.sym-fext", "characterize:13.dmp",
        "characterize:15.cem", "characterize:16.bo",
        "bench:raycast", "bench:collision", "bench:nn",
    )

    def imports(self) -> None:
        import repro.harness.shm as shm
        from repro.harness.suite import run_suite
        from repro.results import ResultStore, capture_environment, record_from_suite

        self.shm = shm
        self.run_suite = run_suite
        self.record_from_suite = record_from_suite
        self.env = capture_environment()
        self.store = ResultStore()

    def trace_targets(self, tracer: Tracer) -> None:
        import repro.envs.cache as cache

        tracer.target(
            cache.WorkloadCache, "publish_entries", "harness.shm.publish", "harness.shm"
        )

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        import shutil

        self.seed = seed
        self.reference: Optional[Dict[str, Any]] = None
        report, _ = self._pass()  # a returning user's state: warm cache, a record
        names = tuple(row["task"] for row in report["tasks"])
        if sorted(names) != sorted(self.TASKS):
            raise RuntimeError(f"--filter {self.FILTER!r} selected {names}")
        self.results_dir = self.store.root
        self.snapshot = self.results_dir + ".start"
        shutil.copytree(self.results_dir, self.snapshot)

    def _restore_store(self) -> None:
        """Bring the store back to its starting state: one stored record.

        Without this every pass would read one more record than the last
        (``run_suite`` scans the store's history for a serial baseline),
        and the pass time would grow with the number of passes run.
        """
        import shutil

        shutil.rmtree(self.results_dir)
        shutil.copytree(self.snapshot, self.results_dir)

    def _pass(self) -> Tuple[Dict[str, Any], float]:
        report = self.run_suite(
            jobs=self.JOBS, smoke=True, seed=self.seed, task_filter=self.FILTER
        )
        record = self.record_from_suite(report, env=self.env)
        t0 = time.perf_counter()
        self.store.save(record)
        return report, time.perf_counter() - t0

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        reports: List[Tuple[Dict[str, Any], float]] = []

        def check(index: int, output: Any, phase: Phase) -> None:
            reports.append(output)
            self._restore_store()
            leaked = self.shm.list_segments()
            if leaked:
                phase.fail(f"pass {index} left shared memory {leaked}")

        phase = closed_loop(seconds, lambda i: self._pass(), check, tracer)
        # Operations are tasks; a pass that raised counts as one.
        raised = phase.attempted - len(reports)
        phase.jobs = sum(len(r["tasks"]) for r, _ in reports)
        phase.attempted = phase.jobs + raised
        phase.layers = self._layers(reports, tracer, len(phase.latencies))
        phase.verify = lambda: self._verify(reports, phase)
        return phase

    def _verify(self, reports, phase: Phase) -> None:
        """Check every task row against one inline (jobs=1) run, and that
        run's characterization rows against Table I.

        Runs after every timed phase of the run: the inline run imports
        the kernels into this process, and pool workers forked after it
        would no longer pay those imports themselves.
        """
        import checks

        if self.reference is None:
            inline = self.run_suite(
                jobs=1, smoke=True, seed=self.seed, task_filter=self.FILTER
            )
            self.reference = {
                row["task"]: (row.get("fingerprint"), checks.check_table_i(row))
                for row in inline["tasks"]
            }
        for report, _ in reports:
            for row in report["tasks"]:
                reason = checks.check_suite_row(row, self.reference)
                if reason:
                    phase.fail(reason)

    def _layers(self, reports, tracer: Optional[Tracer], passes: int) -> Dict[str, float]:
        def median(fn: Callable[[Dict[str, Any]], float]) -> float:
            return statistics.median(fn(report) for report, _ in reports)

        def cache(key: str) -> Callable[[Dict[str, Any]], float]:
            return lambda r: sum(row.get("cache", {}).get(key, 0) for row in r["tasks"])

        layers = {
            "harness.parallel.exec_s": median(
                lambda r: sum(row["exec_s"] for row in r["tasks"])
            ),
            "harness.parallel.dispatch_s": median(
                lambda r: r["suite"]["dispatch_overhead_s"]
            ),
            "harness.parallel.queue_wait_s": median(
                lambda r: sum(row["queue_wait_s"] for row in r["tasks"])
            ),
            "harness.parallel.utilization": median(
                lambda r: r["suite"]["worker_utilization"]
            ),
            "harness.shm.bytes": median(
                lambda r: r["suite"]["executor"]["shm_bytes"] / 1e6
            ),
            "envs.cache.hits": median(
                lambda r: sum(cache(k)(r) for k in ("memory_hits", "shm_hits", "disk_hits"))
            ),
            "envs.cache.misses": median(cache("misses")),
            "envs.cache.build_s": median(cache("build_time_s")),
            "envs.cache.hit_s": median(cache("hit_time_s")),
            "results.record_write_ms": (
                statistics.median(write for _, write in reports) * 1e3
            ),
        }
        if tracer is not None:
            layers["harness.shm.publish_s"] = tracer.total("harness.shm.publish") / passes
        return layers


WORKLOADS = {w.name: w for w in (PlanGrid, PerceiveStep, ControlRt, SuitePool)}
