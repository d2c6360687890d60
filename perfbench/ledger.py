"""Per-layer host-time ledger, recorded from outside the program.

The ledger times calls into each layer's entry points by replacing
them, for the duration of one traced iteration, with thin wrappers that
push a span on a stack. A layer's *self* time is the time inside its
spans minus the time inside nested spans of any layer, so the self
times of all layers plus the time outside every span add up to the
traced wall time. Functions that return generators (the simulator's
processes) are timed on every resume step.

Nothing under ``src/`` is edited: the wrappers are installed on the
classes and modules of the already-imported program and removed again
when the traced iteration ends. Objects built while the wrappers are in
place keep bound references to them (processes started in constructors,
callbacks handed to the scheduler), so the traced iteration must build
its testbed inside the :class:`Ledger` context.

:class:`EventCounter` is the one patch the untraced runs also use: it
sums ``Simulator.event_count`` over every ``Simulator.run`` call, in
every simulator a workload creates, including the rack domains that
``run_cluster`` builds and drops internally.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["LAYERS", "Ledger", "EventCounter"]

#: Layer -> (owner, names). ``owner`` is a module path, optionally
#: followed by attributes (``repro.accel.ops`` is the active accel
#: backend module). A name is a module function, ``Class.method``, or a
#: bare ``Class`` meaning every non-dunder function defined in that
#: class body. Trivial address predicates (``AddressRange.contains``
#: and friends) are left out: a wrapper would cost more than the call.
#: ``sim`` wraps the engine's entry points so that layers whose calls
#: run the simulator (a blocking ``RemoteBuffer.write``, a rack
#: domain's ``advance``) do not absorb the engine's time.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine",
     ("Simulator.run", "Simulator.run_process", "Simulator.step")),
    ("sim.resources", "repro.sim.resources",
     ("Resource", "Store", "CreditPool")),
    ("opencapi", "repro.opencapi.bus", ("SystemBus", "DramBusTarget")),
    ("opencapi", "repro.opencapi.ports",
     ("OpenCapiM1Port", "OpenCapiC1Port")),
    ("opencapi", "repro.opencapi.pasid", ("PasidRegistry",)),
    ("opencapi", "repro.opencapi.transactions",
     ("MemTransaction", "split_burst", "transaction_flits",
      "flits_for_payload")),
    ("rmmu", "repro.core.rmmu", ("Rmmu",)),
    ("routing", "repro.core.routing", ("RoutingLayer",)),
    ("llc", "repro.core.llc", ("LlcEndpoint", "Frame")),
    ("llc", "repro.net.crc", ("crc32", "frame_digest_bytes", "check")),
    ("llc", "repro.net.packet", ("PacketSwitch",)),
    ("endpoint", "repro.core.endpoints",
     ("ComputeEndpoint", "MemoryStealingEndpoint", "RetryPolicy")),
    ("endpoint", "repro.core.device", ("ThymesisFlowDevice",)),
    ("link", "repro.net.link", ("SerialLink", "ChannelEndpointView")),
    ("link", "repro.net.faults", ("FaultInjector",)),
    ("mem", "repro.mem.dram", ("DramDevice", "DramTiming")),
    ("mem", "repro.mem.backing", ("BackingStore",)),
    ("mem", "repro.mem.address", ("AddressSpaceAllocator",)),
    ("accel", "repro.accel.ops",
     ("frame_digest", "serialization_schedule", "bank_service_windows",
      "sort_values", "solve_linear_system")),
    ("control", "repro.control.orchestrator", ("ControlPlane",)),
    ("control", "repro.control.planner", ("PathPlanner",)),
    ("control", "repro.control.graph", ("StateGraph",)),
    ("cluster", "repro.cluster.trace",
     ("synthesize_trace", "downsample_trace", "trace_window")),
    ("cluster", "repro.cluster.simulation", ("scaled_trace_config",)),
    ("cluster", "repro.cluster.topology",
     ("cluster_trace_events", "build_rack_domain", "RackDomain",
      "RackDomain.__init__", "RackPool")),
    ("cluster", "repro.cluster.replay", ("run_cluster",)),
    ("domains", "repro.sim.domains",
     ("DomainCoordinator", "_LocalShard", "_shard_build",
      "_shard_advance", "_shard_finalize")),
    ("osmodel", "repro.osmodel.agent", ("ThymesisFlowAgent",)),
    ("osmodel", "repro.osmodel.kernel", ("LinuxKernel",)),
    ("osmodel", "repro.osmodel.sections", ("SparseMemoryModel",)),
    ("osmodel", "repro.osmodel.pages", ("PageAllocator",)),
    ("obs", "repro.obs.events",
     ("EventLog", "emit", "merge_event_streams",
      "capture_into.__enter__", "capture_into.__exit__")),
    ("obs", "repro.obs.metrics", ("MetricsRegistry",)),
    ("testbed", "repro.testbed.prototype", ("Testbed.__init__",)),
    ("testbed", "repro.testbed.base", ("TestbedBase",)),
    ("testbed", "repro.testbed.packet_rack",
     ("PacketRackTestbed.__init__", "PacketFabricDriver",
      "AddressedUplink")),
    ("testbed", "repro.testbed.node", ("Ac922Node", "Ac922Node.__init__")),
    ("testbed", "repro.testbed.remote_buffer", ("RemoteBuffer",)),
)

#: Every layer the ledger reports, in report order. ``app`` is the
#: benchmark's own code that issues operations and checks results.
LAYER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys([layer for layer, _, _ in LAYERS] + ["app"])
)


def _resolve(path: str) -> Any:
    """Import the longest module prefix of ``path``, getattr the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        return owner
    raise ImportError(path)


class Ledger:
    """Context manager: install span wrappers, accumulate self time.

    ``self_s[layer]`` is the layer's self time; ``stats[key]`` is
    ``[calls, inclusive_s]`` per wrapped callable, keyed
    ``"module:Qual.name"``.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.stats: Dict[str, List[float]] = {}
        #: Highest ``in_use`` seen per ``Resource`` name. The program
        #: records DRAM bank peaks only under its own transaction tracer,
        #: so the ledger samples them where occupancy can rise.
        self.resource_peaks: Dict[str, int] = {}
        #: Span stack; each frame holds the child time seen so far. The
        #: root frame collects top-level spans.
        self._stack: List[List[float]] = [[0.0]]
        self._undo: List[Callable[[], None]] = []
        self.wall_s = 0.0
        self._started = 0.0

    # -- installation ------------------------------------------------------------
    def __enter__(self) -> "Ledger":
        for layer, owner_path, names in LAYERS:
            owner = _resolve(owner_path)
            for name in names:
                self._install(layer, owner, owner_path, name)
        self._install_resource_probe()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._started
        while self._undo:
            self._undo.pop()()

    def _install(self, layer: str, owner: Any, owner_path: str,
                 name: str) -> None:
        head, _, method = name.partition(".")
        target = getattr(owner, head)
        if inspect.isclass(target) and not method:
            for attr, value in list(vars(target).items()):
                if attr.startswith("__") or not _is_function(value):
                    continue
                self._patch_class(layer, target, attr, owner_path)
        elif method:
            self._patch_class(layer, target, method, owner_path)
        else:
            self._patch_function(layer, owner, head, owner_path)

    def _patch_class(self, layer: str, cls: type, attr: str,
                     owner_path: str) -> None:
        raw = vars(cls)[attr]
        key = f"{owner_path}:{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(layer, raw.__func__, key))
        else:
            wrapped = self._wrap(layer, raw, key)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def _patch_function(self, layer: str, owner: Any, attr: str,
                        owner_path: str) -> None:
        original = getattr(owner, attr)
        wrapped = self._wrap(layer, original, f"{owner_path}:{attr}")
        # ``from x import f`` copies the binding: rebind every module of
        # the program that holds the same function object.
        holders = [owner] + [
            module for name, module in list(sys.modules.items())
            if name.startswith("repro") and module is not owner
            and getattr(module, attr, None) is original
        ]
        for holder in holders:
            setattr(holder, attr, wrapped)
            self._undo.append(
                lambda holder=holder: setattr(holder, attr, original)
            )

    def _install_resource_probe(self) -> None:
        from repro.sim.resources import Resource

        peaks = self.resource_peaks
        for attr in ("acquire", "release"):
            inner = vars(Resource)[attr]

            def probed(resource, *args, _inner=inner, **kwargs):
                result = _inner(resource, *args, **kwargs)
                if resource.in_use > peaks.get(resource.name, 0):
                    peaks[resource.name] = resource.in_use
                return result

            setattr(Resource, attr, probed)
            self._undo.append(
                lambda attr=attr, inner=inner: setattr(Resource, attr, inner)
            )

    # -- spans -------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, key: str) -> Callable:
        stat = self.stats.setdefault(key, [0, 0.0])
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn, stat)
        stack = self._stack
        totals = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                totals[layer] += elapsed - frame[0]
                stat[0] += 1
                stat[1] += elapsed

        return timed

    def _wrap_generator(self, layer: str, fn: Callable,
                        stat: List[float]) -> Callable:
        stack = self._stack
        totals = self.self_s
        clock = time.perf_counter

        def steps(generator):
            # Forward every send/throw/close so the simulator sees the
            # same yields and results as from the bare generator.
            value = None
            error = None
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    if error is None:
                        target = generator.send(value)
                    else:
                        target = generator.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    totals[layer] += elapsed - frame[0]
                    stat[1] += elapsed
                error = None
                try:
                    value = yield target
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # forwarded into the process
                    error = exc

        @functools.wraps(fn)
        def stepped(*args, **kwargs):
            stat[0] += 1
            return steps(fn(*args, **kwargs))

        return stepped

    def wrap_process(self, layer: str, fn: Callable) -> Callable:
        """Time a generator function of the benchmark's own as ``layer``."""
        return self._wrap(layer, fn, f"perfbench:{fn.__name__}")

    # -- readout -----------------------------------------------------------------
    def calls(self, key: str) -> int:
        return int(self.stats.get(key, (0, 0.0))[0])

    def inclusive_s(self, key: str) -> float:
        return float(self.stats.get(key, (0, 0.0))[1])

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer; ``sim`` also takes the unattributed rest.

        The rest is the traced wall time minus every other layer's self
        time: the engine's own loop plus the glue between spans.
        """
        times = dict(self.self_s)
        times["sim"] = self.wall_s - sum(
            value for layer, value in times.items() if layer != "sim"
        )
        return times


def _is_function(value: Any) -> bool:
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    return inspect.isfunction(value)


class EventCounter:
    """Sum engine events and simulated time over every ``Simulator.run``.

    Nested ``run`` calls (a process that runs the simulator re-entrantly)
    are counted once, by the outermost call.
    """

    def __init__(self) -> None:
        self.events = 0
        self.sim_s = 0.0
        self._depth = 0
        self._original = None

    def reset(self) -> None:
        self.events = 0
        self.sim_s = 0.0

    def __enter__(self) -> "EventCounter":
        from repro.sim.engine import Simulator

        original = self._original = Simulator.run

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            before = sim.event_count
            self._depth += 1
            try:
                return original(sim, *args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.events += sim.event_count - before
                    self.sim_s = max(self.sim_s, sim.now)

        Simulator.run = run
        return self

    def __exit__(self, *exc_info: Any) -> None:
        from repro.sim.engine import Simulator

        Simulator.run = self._original
