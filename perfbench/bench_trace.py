"""Host-time attribution for the benchmark's traced run.

Two instruments, both installed from outside the program at run time
and removed afterwards; ``src/`` carries no tracing code for them:

* **Probes** wrap public functions at layer boundaries.  A timed
  probe records a :class:`~bench_stats.Span` per call, nested by the
  call stack; a counting probe adds to a named count.  Counts are exact
  and repeat run to run.
* **A deterministic profile** (``cProfile``) gives every ``repro``
  package its self time, including the layers entered only through
  simulation-kernel callbacks, which no wrapper around a public call
  can see.  Time spent in NumPy, the standard library and builtin C
  functions is charged to the package whose code called them, walking
  up through foreign Python frames until a ``repro`` frame is found.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

from bench_stats import Span

#: Foreign time is passed up at most this many caller levels; what is
#: still unplaced after that is left unattributed.
MAX_CHARGE_DEPTH = 64

#: Marks a method a probe set on a class that only inherited it.
_INHERITED = object()

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


class Tracer:
    """In-memory spans and counts recorded by the probes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args, kwargs) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)


@dataclass(frozen=True)
class Probe:
    """One wrapped public function.

    ``attr`` is ``"function"`` or ``"Class.method"`` in ``module``.
    ``span`` names the span recorded per call; ``count`` names the
    count increased per call, by ``size(*args, **kwargs)`` when given
    and by one otherwise.
    """

    module: str
    attr: str
    span: Optional[str] = None
    count: Optional[str] = None
    size: Optional[Callable[..., float]] = None


def _probed(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    span, count, size = probe.span, probe.count, probe.size

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        if count is not None:
            tracer.counts[count] += (size(*args, **kwargs)
                                     if size is not None else 1)
        if span is None:
            return fn(*args, **kwargs)
        return tracer.call(span, fn, args, kwargs)

    return probed


def _counting_events(tracer: Tracer, run: Callable) -> Callable:
    """Wrap ``Environment.run`` to count the events it schedules,
    read from the kernel's event sequence counter."""

    @functools.wraps(run)
    def probed(env, *args, **kwargs):
        before = env._seq
        try:
            return run(env, *args, **kwargs)
        finally:
            tracer.counts["sim.events"] += env._seq - before

    return probed


def install(tracer: Tracer, probes: tuple[Probe, ...]
            ) -> Callable[[], None]:
    """Install ``probes`` and the kernel event counter; returns the
    function that removes them again.

    A module-level function is also replaced wherever another
    ``repro`` module imported it by name, so calls through
    ``from x import f`` are seen too.
    """
    undo: list[tuple[Any, str, Any]] = []

    def replace(owner: Any, name: str, new: Any) -> None:
        undo.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, new)

    for probe in probes:
        module = importlib.import_module(probe.module)
        owner: Any = module
        name = probe.attr
        if "." in name:
            cls_name, name = name.split(".")
            owner = getattr(module, cls_name)
        original = vars(owner).get(name, getattr(owner, name))
        wrapped = _probed(tracer, probe, original)
        replace(owner, name, wrapped)
        if owner is module:
            for other in list(sys.modules.values()):
                if (other is not module
                        and getattr(other, "__name__", "").startswith(
                            "repro.")
                        and vars(other).get(name) is original):
                    replace(other, name, wrapped)
    from repro.sim.core import Environment
    replace(Environment, "run",
            _counting_events(tracer, vars(Environment)["run"]))

    def remove() -> None:
        for owner, name, original in reversed(undo):
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        undo.clear()

    return remove


def package_of(filename: str, repro_dir: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to: ``"vpu"`` for
    ``repro/vpu/compiler/compile.py``, ``"repro"`` for top-level
    modules, None for code outside ``repro``."""
    if not filename.startswith(repro_dir):
        return None
    rest = filename[len(repro_dir):]
    head, sep, _ = rest.partition(os.sep)
    return head if sep else "repro"


def attribute(stats: dict, repro_dir: str) -> tuple[dict[str, float],
                                                    float]:
    """Per-package self time from ``pstats.Stats(...).stats``.

    Returns ``(self_s by package, seconds left unplaced)``.  A
    ``repro`` function keeps its own time.  Any other function's time
    (NumPy, builtins, the standard library) goes to its callers in
    proportion to the cumulative time each call site spent in it,
    repeatedly, until it reaches ``repro`` code.  Time reaching the
    benchmark's own frames, or still foreign after
    :data:`MAX_CHARGE_DEPTH` levels, is left unplaced.
    """
    repro_dir = repro_dir.rstrip(os.sep) + os.sep
    owners: dict[tuple, Optional[str]] = {}

    def owner(func: tuple) -> Optional[str]:
        if func not in owners:
            filename = func[0]
            if filename.startswith(_BENCH_DIR):
                owners[func] = "bench"
            else:
                owners[func] = package_of(filename, repro_dir)
        return owners[func]

    self_s: dict[str, float] = defaultdict(float)
    pending: dict[tuple, float] = defaultdict(float)
    unplaced = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        pkg = owner(func)
        if pkg == "bench":
            unplaced += tt
        elif pkg is not None:
            self_s[pkg] += tt
        else:
            pending[func] += tt
    for _ in range(MAX_CHARGE_DEPTH):
        if not pending:
            break
        passed_up: dict[tuple, float] = defaultdict(float)
        for func, amount in pending.items():
            callers = stats[func][4] if func in stats else {}
            total = sum(v[3] for v in callers.values())
            if total <= 0.0:
                unplaced += amount
                continue
            for caller, v in callers.items():
                share = amount * v[3] / total
                pkg = owner(caller)
                if pkg == "bench":
                    unplaced += share
                elif pkg is not None:
                    self_s[pkg] += share
                else:
                    passed_up[caller] += share
        pending = passed_up
    unplaced += sum(pending.values())
    return dict(self_s), unplaced


#: The layer boundaries the traced run probes, by public function.
LAYER_PROBES: tuple[Probe, ...] = (
    Probe("repro.harness.experiment", "build_context",
          span="harness.context"),
    Probe("repro.vpu.compiler.compile", "compile_graph",
          span="vpu.compile"),
    Probe("repro.vpu.myriad2", "Myriad2.run_inference",
          count="vpu.inferences"),
    Probe("repro.ncs.ncapi", "GraphHandle.load_tensor",
          count="ncs.calls"),
    Probe("repro.ncs.ncapi", "GraphHandle.get_result",
          count="ncs.calls"),
    Probe("repro.ncs.usb", "USBTopology.transfer", count="ncs.usb_bytes",
          size=lambda _topology, _device, nbytes: nbytes),
    Probe("repro.errors", "DeviceTimeout.__init__", count="ncs.timeouts"),
    Probe("repro.serve.router", "Backend.submit", count="serve.batches"),
    Probe("repro.serve.router", "Backend.submit",
          count="serve.batched_requests",
          size=lambda _backend, batch: len(batch)),
    Probe("repro.mpi.stream", "StreamWindow.push", count="mpi.messages"),
    Probe("repro.nn.graph", "Network.forward_with_blobs",
          count="nn.forwards"),
    Probe("repro.nn.conv", "Convolution.forward", span="nn.conv"),
    Probe("repro.nn.pool", "Pooling.forward", span="nn.pool"),
    Probe("repro.nn.lrn", "LRN.forward", span="nn.lrn"),
    Probe("repro.tensors.im2col", "im2col", span="tensors.im2col"),
    Probe("repro.numerics.half", "round_fp16",
          count="numerics.fp16_rounds"),
    Probe("repro.data.generator", "ImageSynthesizer.sample",
          count="data.images_synthesized"),
)
