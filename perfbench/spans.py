"""Timing vecafl from outside the package.

Two recorders patch names in the package's modules for the length of one
cell and put the originals back afterwards:

* ``SlotClock`` is always on.  It times the slot loops (``ddpg.train`` and
  ``engine.run_phase``) and cuts them into slots; in untraced cells it also
  runs a host-speed probe after every slot, outside the timings.  Every slot ends with one
  evaluation of the global model, and the first slot of an episode starts
  when that episode's World starts to build.
* ``SpanRecorder`` is on only in traced runs.  It wraps every public
  function of a layer module at each name that another layer module binds
  it to, because the package imports with ``from .model import
  local_train``: a wrapper on ``vecafl.model.local_train`` alone would never
  see the call that ``engine`` makes.  It records one span (name, start,
  end, parent) per call in memory.
"""

import functools
import inspect
import time

LAYERS = ("channel", "data", "world", "model", "engine", "ddpg", "harness")

# The slot loops.  Their own bodies are the only time inside a loop that no
# layer span claims.
LOOP_ROOTS = ("ddpg.train", "engine.run_phase")

# A call a module makes to itself is traced only for these names: the
# per-slot entry points, the agent's stages and the output writers.  The
# model's SGD kernels call each other hundreds of times per learner and
# stay inside the span of ``local_train``.
OWN_CALLS = {
    "engine": ("run_afl_slot", "sync_round", "global_update",
               "threshold_accept", "local_delay", "upload_delay",
               "staleness_weight", "weighted_upload"),
    "ddpg": ("build_state", "state_vector", "actor_forward", "critic_forward",
             "binarize_action", "compute_reward", "slot_reward",
             "init_agent", "critic_targets", "critic_update", "actor_update",
             "soft_update", "train", "greedy_select", "test_policy",
             "save_checkpoint"),
    "harness": ("run_experiment", "emit_metrics", "resolve_attacked_ids"),
}

# Methods are patched on their class, which every module shares.
METHODS = {
    ("world", "World"): ("__init__", "advance", "rates", "computes",
                         "positions", "data_counts", "set_attacks",
                         "training_batch", "rsu_batch_intact", "digest",
                         "train_rng", "rsu_train_rng", "degrade_rng"),
    ("ddpg", "ReplayBuffer"): ("push", "sample"),
    ("ddpg", "OUNoise"): ("reset", "sample"),
    ("data", "DataShard"): ("training_view",),
}


class Patcher:
    """Replaces attributes and restores them, last patch first."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


CALIBRATION_LOOPS = 10_000


def calibration_s() -> float:
    """Time of a fixed stretch of pure-Python work: a probe of host speed.

    The simulator spends most of its time in the interpreter between small
    BLAS calls, and on a shared host its speed follows this probe's.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


class SlotClock:
    """Slot-loop wall time, and the wall and CPU time of every slot.

    With ``calibrate`` on, the calibration probe runs after every slot,
    outside every slot's and the loop's time, and ``calibration_s`` keeps
    its times.
    """

    def __init__(self, calibrate: bool = False):
        self.calibrate = calibrate
        self.loop_s = 0.0
        self.slot_s = []
        self.slot_cpu_s = []
        self.calibration_s = []
        self.probe_total_s = 0.0     # wall time the probes took
        self.first_loop_at = None
        self._in_loop = False
        self._mark = self._cpu_mark = None

    def install(self, patcher: Patcher, modules: dict) -> None:
        for layer, name in (("harness", "run_phase"), ("ddpg", "run_phase"),
                            ("ddpg", "train")):
            mod = modules[layer]
            patcher.set(mod, name, self._loop(vars(mod)[name]))
        for layer in ("engine", "ddpg"):
            mod = modules[layer]
            patcher.set(mod, "evaluate", self._slot_end(vars(mod)["evaluate"]))
        world_cls = modules["world"].World
        patcher.set(world_cls, "__init__",
                    self._episode_start(vars(world_cls)["__init__"]))

    def _loop(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            if self.first_loop_at is None:
                self.first_loop_at = start
            self._in_loop = True
            self._mark, self._cpu_mark = start, time.process_time()
            probes_before = self.probe_total_s
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_loop = False
                self.loop_s += (time.perf_counter() - start
                                - (self.probe_total_s - probes_before))
        return timed

    def _episode_start(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._in_loop:
                self._mark = time.perf_counter()
                self._cpu_mark = time.process_time()
            return fn(*args, **kwargs)
        return timed

    def _slot_end(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            now, cpu = time.perf_counter(), time.process_time()
            self.slot_s.append(now - self._mark)
            self.slot_cpu_s.append(cpu - self._cpu_mark)
            if self.calibrate:
                self.calibration_s.append(calibration_s())
                self.probe_total_s += time.perf_counter() - now
                now, cpu = time.perf_counter(), time.process_time()
            self._mark, self._cpu_mark = now, cpu
            return out
        return timed


class SpanRecorder:
    """In-memory spans at the module boundaries of the package.

    ``notes`` maps a span name to ``fn(args, result)``; its value is kept
    with the span, for counts that only the arguments or result show.
    """

    def __init__(self, notes=None):
        self.spans = []          # [name, start, end, parent index, note]
        self._stack = []
        self._notes = notes or {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out
        return traced

    def install(self, patcher: Patcher, modules: dict) -> None:
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home in LAYERS and (home != layer
                                       or attr in OWN_CALLS.get(layer, ())):
                    patcher.set(mod, attr, self.wrap(f"{home}.{attr}", obj))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                patcher.set(cls, method, self.wrap(
                    f"{layer}.{cls_name}.{method}", vars(cls)[method]))


def summarize(spans) -> dict:
    """Inclusive and self time per span name, inside and outside the loops.

    A span's self time is its duration minus the durations of its direct
    children.  ``coverage`` is the share of slot-loop wall time that layer
    spans claim as self time; the rest is the loops' own bodies.
    """
    n = len(spans)
    child = [0.0] * n
    in_loop = [False] * n
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_loop[i] = in_loop[parent] or spans[parent][0] in LOOP_ROOTS
    loop_total, loop_self, loop_count, loop_notes = {}, {}, {}, {}
    outside_total = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    loop_wall = glue = 0.0
    for i, (name, start, end, _, note) in enumerate(spans):
        dur = end - start
        if not in_loop[i]:
            if name in LOOP_ROOTS:
                loop_wall += dur
                glue += dur - child[i]
            else:
                outside_total[name] = outside_total.get(name, 0.0) + dur
            continue
        loop_total[name] = loop_total.get(name, 0.0) + dur
        loop_self[name] = loop_self.get(name, 0.0) + dur - child[i]
        loop_count[name] = loop_count.get(name, 0) + 1
        if note is not None:
            loop_notes.setdefault(name, []).append(note)
        layer_self[name.partition(".")[0]] += dur - child[i]
    return {"loop_total": loop_total, "loop_self": loop_self,
            "loop_count": loop_count, "loop_notes": loop_notes,
            "outside_total": outside_total, "layer_self": layer_self,
            "loop_wall": loop_wall,
            "coverage": 1.0 - glue / loop_wall if loop_wall else 0.0}
