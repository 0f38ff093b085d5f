"""Span tracing around the program's layer boundaries, from outside.

The benchmark never edits the program.  It wraps the public functions
and methods of each layer (see ``LAYER_TARGETS``) at every place the
program can reach them from: module globals of every loaded ``repro``
module (so ``from .x import f`` import sites are covered), default
argument values that captured the function (``runner=execute_job``),
and class attributes for methods.

Each wrapped call records one span ``[name, start, end, parent, ctx,
error]`` in a list private to the calling thread.  ``parent`` indexes
the same thread's list, ``ctx`` is the iteration seed (``it:<seed>``)
or job index (``job:<n>``) the call ran under.  A call into a span
name that is already open on the thread (recursion, or a wrapped
function calling its wrapped twin) is not recorded again, so a name's
total never counts the same interval twice.  Spans stay in memory until
:meth:`SpanTracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

# (span name, module, qualified name).  A name shared by several
# targets sums them: ``tv.execute`` is batched and scalar plan
# execution alike.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("mutate", "repro.mutate.engine", "Mutator.create_mutant"),
    ("ir.parse", "repro.ir.parser", "parse_module"),
    ("ir.clone", "repro.ir.module", "Module.clone"),
    ("ir.clone", "repro.ir.module", "clone_functions_into"),
    ("ir.fingerprint", "repro.ir.fingerprint", "fingerprint_function"),
    ("ir.fingerprint", "repro.ir.fingerprint", "fingerprint_closure"),
    ("opt", "repro.opt.pass_manager", "PassManager.run"),
    ("opt", "repro.opt.pass_manager", "PassManager.run_function"),
    ("tv", "repro.tv.refine", "check_refinement"),
    ("tv.inputs", "repro.tv.refine", "generate_inputs"),
    ("tv.prepare", "repro.tv.interp", "Interpreter.prepare"),
    ("tv.prepare", "repro.tv.batch", "batch_program_for"),
    ("tv.interp_setup", "repro.tv.interp", "Interpreter.__init__"),
    ("tv.lane_setup", "repro.tv.batch", "BatchRunner.__init__"),
    ("tv.execute", "repro.tv.batch", "BatchProgram.execute"),
    ("tv.execute", "repro.tv.compile", "ExecutionPlan.execute"),
    ("tv.compare", "repro.tv.refine", "outcome_refines"),
    ("fuzz.setup", "repro.fuzz.driver", "FuzzDriver.__init__"),
    ("fuzz.iteration", "repro.fuzz.driver", "FuzzDriver.run_one"),
    ("fuzz.job", "repro.fuzz.parallel", "execute_job"),
    ("fuzz.findings", "repro.fuzz.findings", "BugLog.record"),
    ("wire.encode", "repro.fuzz.wire", "encode_payload"),
    ("wire.decode", "repro.fuzz.wire", "decode_payload"),
    ("wire.decode", "repro.fuzz.wire", "DecodeCache.text"),
    ("net.claim", "repro.fuzz.net", "SocketQueue.claim_next"),
    ("net.publish", "repro.fuzz.net", "SocketQueue.publish"),
    ("net.publish", "repro.fuzz.net", "SocketQueue.publish_result"),
    ("net.collect", "repro.fuzz.net", "SocketQueue.collect_results"),
    ("net.collect", "repro.fuzz.net", "SocketQueue.collect_tombstones"),
    ("net.request", "repro.fuzz.net", "SocketQueue._request"),
    ("dist.node", "repro.fuzz.dist", "NodeRunner.run"),
)

# Spans that only contain other layers' work: they are left out of the
# coverage used for the unattributed share.
CONTAINER_SPANS = frozenset({"dist.node"})


def import_all_repro() -> None:
    """Import every ``repro`` module, so every import site is patchable."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


def _replace_everywhere(original, replacement) -> None:
    """Point every module global and default argument in the loaded
    ``repro`` modules that holds ``original`` at ``replacement``."""
    seen_functions = set()

    def fix_defaults(function) -> None:
        if id(function) in seen_functions:
            return
        seen_functions.add(id(function))
        defaults = getattr(function, "__defaults__", None)
        if defaults and any(value is original for value in defaults):
            function.__defaults__ = tuple(
                replacement if value is original else value
                for value in defaults)
        kwdefaults = getattr(function, "__kwdefaults__", None)
        if kwdefaults:
            for key, value in kwdefaults.items():
                if value is original:
                    kwdefaults[key] = replacement

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif inspect.isfunction(value):
                fix_defaults(value)
            elif inspect.isclass(value) \
                    and value.__module__ == module.__name__:
                for member in list(vars(value).values()):
                    if inspect.isfunction(member):
                        fix_defaults(member)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: Optional[List[list]] = None
        self.stack: List[int] = []
        self.open: set = set()
        self.ctx = ""


class SpanTracer:
    """Collects spans per thread; summarizes them into layer totals."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._threads: List[Tuple[str, List[list]]] = []
        self.counts: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """A counter measured at a wrapped boundary (thread-safe)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def _spans(self) -> List[list]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, state.spans))
        return state.spans

    def wrap(self, name: str, function: Callable,
             ctx_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        state = self._state
        spans_for = self._spans

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if name in state.open:
                return function(*args, **kwargs)
            spans = spans_for()
            stack = state.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, state.ctx,
                    ""]
            stack.append(len(spans))
            spans.append(span)
            state.open.add(name)
            saved_ctx = state.ctx
            if ctx_of is not None:
                state.ctx = span[4] = ctx_of(args, kwargs)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                state.ctx = saved_ctx
                state.open.discard(name)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- reading the spans ---------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds, and
        calls that raised."""
        out: Dict[str, Dict[str, float]] = {}
        for _thread, spans in self._threads:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child_time[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                entry = out.setdefault(span[0], {"calls": 0, "seconds": 0.0,
                                                 "self_seconds": 0.0,
                                                 "raised": 0})
                duration = span[2] - span[1]
                entry["calls"] += 1
                entry["seconds"] += duration
                entry["self_seconds"] += duration - child_time[index]
                if span[5]:
                    entry["raised"] += 1
        return out

    def intervals(self) -> List[Tuple[float, float]]:
        """Merged wall intervals covered by any span on any thread
        (container spans excluded)."""
        spans = sorted((span[1], span[2]) for _thread, thread_spans
                       in self._threads for span in thread_spans
                       if span[0] not in CONTAINER_SPANS)
        return merge_intervals(spans)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: thread, index, name, start,
        end, parent, ctx, error."""
        with open(path, "w") as stream:
            for thread, spans in self._threads:
                for index, span in enumerate(spans):
                    stream.write(json.dumps(
                        [thread, index] + span, separators=(",", ":")))
                    stream.write("\n")


def merge_intervals(intervals) -> List[Tuple[float, float]]:
    """Union of ``(start, stop)`` intervals, sorted and disjoint."""
    merged: List[Tuple[float, float]] = []
    for start, stop in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if stop > merged[-1][1]:
                merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return merged


def covered_seconds(intervals, begin: float, end: float) -> float:
    """Seconds of ``[begin, end]`` that the disjoint ``intervals`` cover."""
    return sum(max(0.0, min(stop, end) - max(start, begin))
               for start, stop in intervals)


def _ctx_iteration(args, kwargs) -> str:
    seed = args[1] if len(args) > 1 else kwargs.get("seed")
    return f"it:{seed}"


def _ctx_job(args, kwargs) -> str:
    job = args[0] if args else kwargs.get("job")
    return f"job:{job.job_index}"


def install(tracer: SpanTracer) -> None:
    """Wrap every ``LAYER_TARGETS`` entry wherever the program can
    reach it."""
    import_all_repro()

    def on_mutant(result) -> None:
        _mutant, record = result
        tracer.add("mutate.functions_copied", record.functions_copied)
        if record.applied:
            tracer.add("mutate.valid")

    def on_payload(result) -> None:
        data, _format = result
        tracer.add("wire.payload_bytes", len(data))

    def on_check(result) -> None:
        tracer.add("tv.inputs_checked", result.inputs_checked)
        tracer.add("tv.inconclusive_inputs", result.inconclusive_inputs)

    hooks = {
        "fuzz.iteration": dict(ctx_of=_ctx_iteration),
        "fuzz.job": dict(ctx_of=_ctx_job),
        "mutate": dict(on_result=on_mutant),
        "tv": dict(on_result=on_check),
        "wire.encode": dict(on_result=on_payload),
    }
    for name, module_name, qualname in LAYER_TARGETS:
        owner, attr, original = _resolve(module_name, qualname)
        wrapper = tracer.wrap(name, original, **hooks.get(name, {}))
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
        _replace_everywhere(original, wrapper)


class IterationClock:
    """The untraced run's only instrumentation: per-``run_one`` latency
    and the time the first mutant was requested.  Two clock reads and a
    list append per iteration."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.first_mutant_at: Optional[float] = None

    def install(self) -> None:
        from repro.fuzz.driver import FuzzDriver
        from repro.mutate.engine import Mutator
        latencies = self.latencies
        run_one = FuzzDriver.run_one
        create_mutant = Mutator.create_mutant
        clock = self

        @functools.wraps(run_one)
        def timed_run_one(*args, **kwargs):
            begin = perf_counter()
            try:
                return run_one(*args, **kwargs)
            finally:
                latencies.append(perf_counter() - begin)

        @functools.wraps(create_mutant)
        def first_mutant(*args, **kwargs):
            if clock.first_mutant_at is None:
                clock.first_mutant_at = perf_counter()
            return create_mutant(*args, **kwargs)

        FuzzDriver.run_one = timed_run_one
        Mutator.create_mutant = first_mutant
