"""Spans and counters recorded around wiptsim's layer boundaries, from outside.

The tracer patches module attributes where the callers look them up
(``cli.sweep``, ``region.evaluate``, ``protocols.rf_harvest``, ...), so
``src/`` needs no hooks.  Three kinds of wrapper:

* ``span``: one record per call (name, start, end, parent, run id).
* ``rollup``: one aggregate record per enclosing span, holding the call
  count and summed duration.  Used for ``protocols.evaluate``, which runs
  once per control tuple; a record per call would cost more memory than
  the sweep it measures.
* ``count``: a bare call counter for the closed-form kernels, which take
  too little time per call to wrap with a timer.

Spans stay in memory and are written once, when the child exits.
"""

import functools
import time

_clock = time.perf_counter_ns


class _Frame:
    __slots__ = ("id", "name", "parent", "start", "child_ns", "rollups", "attrs")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.child_ns = 0
        self.rollups = {}  # name -> [calls, ns, rejected]
        self.attrs = None


class Tracer:
    """Owns the open-span stack, the finished span records and the counters."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._next_id = 1
        self._stack = [_Frame(0, "bench.child", None, _clock())]

    # -- recording -----------------------------------------------------

    def _record(self, frame, end):
        for name, (calls, ns, rejected) in frame.rollups.items():
            self.spans.append({
                "run": self.run_id, "id": self._new_id(), "name": name,
                "parent": frame.id, "start_ns": frame.start, "end_ns": end,
                "kind": "rollup", "calls": calls, "dur_ns": ns, "rejected": rejected,
            })
        record = {
            "run": self.run_id, "id": frame.id, "name": frame.name,
            "parent": frame.parent, "start_ns": frame.start, "end_ns": end,
            "kind": "call", "calls": 1, "dur_ns": end - frame.start,
            "self_ns": end - frame.start - frame.child_ns,
        }
        if frame.attrs:
            record.update(frame.attrs)
        self.spans.append(record)

    def _new_id(self):
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def open(self, name):
        parent = self._stack[-1]
        frame = _Frame(self._new_id(), name, parent.id, _clock())
        self._stack.append(frame)
        return frame

    def close(self, frame):
        end = _clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self._stack[-1].child_ns += end - frame.start
        self._record(frame, end)

    def finish(self):
        """Close the root span; returns every record, root last."""
        while len(self._stack) > 1:
            self.close(self._stack[-1])
        self._record(self._stack.pop(), _clock())
        return self.spans

    # -- wrappers ------------------------------------------------------

    def span(self, fn, name, attrs=None):
        """Wrap fn so each call is one span; attrs(args, result) adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    frame.attrs = attrs(args, result)
                return result
            finally:
                self.close(frame)

        return wrapper

    def rollup(self, fn, name, rejection=()):
        """Wrap fn so its calls aggregate into one record per enclosing span.

        Exceptions of the types in ``rejection`` are counted as rejected
        calls and re-raised.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = stack[-1]
            acc = frame.rollups.get(name)
            if acc is None:
                acc = frame.rollups[name] = [0, 0, 0]
            nested_before = frame.child_ns
            start = _clock()
            try:
                return fn(*args, **kwargs)
            except rejection:
                acc[2] += 1
                raise
            finally:
                # Spans opened inside the call (an ensemble build) are
                # children of the enclosing span, not part of this rollup.
                ns = _clock() - start - (frame.child_ns - nested_before)
                acc[0] += 1
                acc[1] += ns
                frame.child_ns += ns

        return wrapper

    def count(self, fn, name):
        """Wrap fn with a bare call counter."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def ensemble_probe(self, fn, name):
        """Wrap ``mean_rf_received_power`` to see fading-ensemble builds.

        Every call is counted.  A scenario value not seen before is one
        ensemble request; its ensemble key (antennas, K, rng seed, samples)
        is a build the first time it appears in the process and a reuse
        after that.  The call that builds is recorded as a span.
        """
        counts = self.counts
        for key in ("channel_rf.mean_rx_calls", "channel_rf.ensemble_requests",
                    "channel_rf.ensemble_builds", "channel_rf.ensemble_samples"):
            counts.setdefault(key, 0)
        seen_scenarios = set()
        seen_keys = set()
        last = [None]

        @functools.wraps(fn)
        def wrapper(scenario, *args, **kwargs):
            counts["channel_rf.mean_rx_calls"] += 1
            if scenario is last[0]:
                return fn(scenario, *args, **kwargs)
            last[0] = scenario
            if scenario in seen_scenarios:
                return fn(scenario, *args, **kwargs)
            seen_scenarios.add(scenario)
            counts["channel_rf.ensemble_requests"] += 1
            key = (scenario.n_rf_antennas, scenario.rician_k, scenario.rng_seed,
                   scenario.mc_samples)
            if key in seen_keys:
                return fn(scenario, *args, **kwargs)
            seen_keys.add(key)
            counts["channel_rf.ensemble_builds"] += 1
            counts["channel_rf.ensemble_samples"] += scenario.mc_samples
            frame = self.open(name)
            frame.attrs = {"samples": scenario.mc_samples}
            try:
                return fn(scenario, *args, **kwargs)
            finally:
                self.close(frame)

        return wrapper


def _len_result(args, result):
    return {"n": len(result)}


def _pareto_sizes(args, result):
    return {"n_in": len(args[0]), "n_out": len(result)}


def install(tracer, wiptsim_modules):
    """Wrap every layer boundary the benchmark measures.

    ``wiptsim_modules`` maps short module names (cli, region, protocols,
    scenario, safety) to the imported modules.  Each function is wrapped
    where its caller looks it up; the benchmark's own calls go through the
    defining module's attribute, which is patched too.
    """
    m = wiptsim_modules
    infeasible = (m["protocols"].InfeasibleControlsError,)

    spans = {
        "region.sweep": [(m["cli"], "sweep"), (m["region"], "sweep")],
        "region.dominates": [(m["cli"], "dominates"), (m["region"], "dominates")],
        "region.max_rate": [(m["cli"], "max_rate"), (m["region"], "max_rate")],
        "region.max_energy": [(m["cli"], "max_energy"), (m["region"], "max_energy")],
        "region.pareto": [(m["region"], "pareto")],
        "protocols.enumerate_controls": [(m["region"], "enumerate_controls")],
        "scenario.parse_scenario": [(m["cli"], "parse_scenario"),
                                    (m["scenario"], "parse_scenario")],
        "scenario.render_scenario": [(m["scenario"], "render_scenario")],
        "safety.evaluate_safety": [(m["cli"], "evaluate_safety"),
                                   (m["safety"], "evaluate_safety")],
        "cli.cmd_compare": [(m["cli"], "cmd_compare")],
        "cli.cmd_region": [(m["cli"], "cmd_region")],
    }
    attrs = {"region.pareto": _pareto_sizes, "protocols.enumerate_controls": _len_result}
    for name, sites in spans.items():
        for module, attr in sites:
            setattr(module, attr, tracer.span(getattr(module, attr), name, attrs.get(name)))

    region = m["region"]
    setattr(region, "evaluate",
            tracer.rollup(region.evaluate, "protocols.evaluate", infeasible))

    protocols = m["protocols"]
    kernels = {
        "optical_harvest": "harvest.optical_calls",
        "rf_harvest": "harvest.rf_calls",
        "lightwave_rate": "link_rates.lightwave_calls",
        "rf_rate": "link_rates.rf_calls",
        "channel_gain": "channel_optical.gain_calls",
        "illuminance_at": "channel_optical.illuminance_calls",
    }
    for attr, name in kernels.items():
        setattr(protocols, attr, tracer.count(getattr(protocols, attr), name))
    setattr(protocols, "mean_rf_received_power",
            tracer.ensemble_probe(protocols.mean_rf_received_power, "channel_rf.ensemble"))
