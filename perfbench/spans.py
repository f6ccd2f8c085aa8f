"""Call-site spans for the traced benchmark run.

`install` rebinds the public functions each foragesim module calls (in the
calling module's namespace, e.g. `foragesim.sim.tick_discharge`) to wrappers
that record a span per call and counts at the same boundary. Nothing under
`src/` changes, and `restore` puts every original back.

A span's self time is its duration minus the time covered by its child spans.
Spans are folded into per-name totals (calls, self time) as they close, so
memory stays flat however long the run; the parent link is the open-span
stack. Self times are taken at call sites rather than from cProfile module
totals because cProfile's per-call overhead is uneven across layers.

The wrappers cost time of their own, and it must not land in a layer's self
time. Each wrapper charges its parent everything it did outside the child's
clock window (the stack push and pop, the counts, the `after` callback), so
the parent does not pay for it. What no clock reading can see (entering and
leaving the wrapper's frame, the clock calls' own halves inside the child's
window) is calibrated when the tracer is made, on an empty wrapped call, and
taken off per call: `inner_ns` from the child's self time and `outer_ns`
from the parent's. Shims that only count or route (the replace router, the
rng counter) are spans named `bench.*`, which no layer includes; the rng
counter's `randrange` forwarding stays inside `weights.select`, once per tie
draw.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter

CALIBRATION_CALLS = 2000
CALIBRATION_ROUNDS = 9


class _CountingRng:
    """Forwards `randrange` to the episode rng and counts the draws."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def randrange(self, *args):
        self._counts["weights.rng_draws"] += 1
        return self._rng.randrange(*args)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.inner_ns = self.outer_ns = 0.0
        self.inner_ns, self.outer_ns = self._calibrate()

    def span(self, name: str, fn, after=None):
        """Wrap `fn` so each call records a span `name`; `after(args, result)` adds counts."""
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            entered = clock()
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_ns[name] += duration - children[0] - tracer.inner_ns
                calls[name] += 1
                if stack:
                    stack[-1][0] += clock() - entered + tracer.outer_ns
            if after is not None:
                begun = clock()
                after(args, result)
                if stack:
                    stack[-1][0] += clock() - begun
            return result

        return wrapper

    def _calibrate(self) -> tuple[float, float]:
        """Per-call wrapper cost that the clock readings do not see.

        `inner_ns` is an empty wrapped call's self time. `outer_ns` is what a
        parent span still pays per wrapped child beyond a plain call: its self
        time over a loop of wrapped calls minus that over a loop of plain ones.
        """
        def empty():
            return None

        child = self.span("bench.calibrate", empty)

        def wrapped_loop():
            for _ in range(CALIBRATION_CALLS):
                child()

        def plain_loop():
            for _ in range(CALIBRATION_CALLS):
                empty()

        loops = {"wrapped": self.span("bench.wrapped", wrapped_loop),
                 "plain": self.span("bench.plain", plain_loop)}
        inner, outer = [], []
        for _ in range(CALIBRATION_ROUNDS):
            spent = {}
            for key, loop in loops.items():
                before = self.self_ns[f"bench.{key}"], self.self_ns["bench.calibrate"]
                loop()
                spent[key] = (self.self_ns[f"bench.{key}"] - before[0],
                              self.self_ns["bench.calibrate"] - before[1])
            inner.append(spent["wrapped"][1] / CALIBRATION_CALLS)
            outer.append((spent["wrapped"][0] - spent["plain"][0]) / CALIBRATION_CALLS)
        for name in ("bench.calibrate", "bench.wrapped", "bench.plain"):
            del self.calls[name], self.self_ns[name]
        return max(0.0, statistics.median(inner)), max(0.0, statistics.median(outer))

    def patch(self, owner, key: str, value) -> None:
        """Rebind attribute `key` of `owner` (an item, when `owner` is a dict)."""
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def install(tracer: Tracer) -> None:
    """Rebind foragesim's call sites to span wrappers; undo with `tracer.restore()`."""
    from foragesim import cli, energy, scenario, sim, weights, world

    counts = tracer.counts

    def rebind(span_name, attr, owners, after=None):
        original = getattr(owners[0], attr)
        wrapped = tracer.span(span_name, original, after)
        for owner in owners:
            if getattr(owner, attr) is original:
                tracer.patch(owner, attr, wrapped)

    def on_dispatch(args, records):
        fired = sum(1 for rec in records if rec.note is None)
        counts["statemachine.transitions"] += fired
        counts["statemachine.useful_dispatches"] += fired > 0

    def on_episode(args, ret):
        result, _trace = ret
        counts["sim.lives"] += 1
        counts["sim.deaths"] += result.outcome == sim.OUTCOME_DIED
        counts["sim.recharges_station"] += result.recharges.get(energy.SOURCE_STATION, 0)
        counts["sim.recharges_wireless"] += result.recharges.get(energy.SOURCE_WIRELESS, 0)
        counts["sim.choices"] += sum(result.choices_made.values())

    def on_trace_write(args, _):
        counts["sim.trace_rows_written"] += len(args[0])
        counts["sim.trace_bytes"] += os.path.getsize(args[1])

    def on_save(args, _):
        counts["weights.csv_bytes"] += os.path.getsize(args[1])

    def on_threshold(args, fired):
        counts["energy.threshold_events"] += len(fired)

    def on_parse(args, ret):
        counts["scenario.diagnostics"] += len(ret[1])

    rebind("statemachine.dispatch", "dispatch", [sim], on_dispatch)
    rebind("statemachine.start", "start_instance", [sim])
    rebind("energy.discharge", "tick_discharge", [sim])
    rebind("energy.charge", "apply_charge", [sim])
    rebind("energy.mood", "mood_of", [sim])
    rebind("energy.gain", "sensor_gain", [sim])
    rebind("energy.threshold", "update", [energy.ThresholdWatcher], on_threshold)
    rebind("weights.record", "record_outcome", [sim])
    rebind("weights.save", "save_weights", [sim], on_save)
    rebind("weights.load", "load_weights", [weights])
    for attr in ("detect_station_cues", "poll_beacon", "coupling_efficiency"):
        rebind("world.sense", attr, [sim])
    for attr in ("step_follow", "step_seek_intensity"):
        rebind("world.move", attr, [sim])
    rebind("sim.trace_build", "TraceEvent", [sim])
    rebind("sim.episode", "run_episode", [sim, cli], on_episode)
    rebind("sim.mc", "run_monte_carlo", [sim, cli])
    rebind("sim.trace_write", "write_trace_jsonl", [sim, cli], on_trace_write)
    rebind("sim.stats_write", "write_stats_csv", [sim, cli])
    rebind("scenario.parse", "parse_scenario_checked", [scenario, cli], on_parse)
    rebind("scenario.serialize", "serialize_scenario", [scenario])
    rebind("cli.main", "main", [cli])

    # The rng reaches select_option only on an exact tie; count those draws.
    select = tracer.span("weights.select", sim.select_option)
    tracer.patch(sim, "select_option", tracer.span(
        "bench.count_rng",
        lambda table, node, options, rng: select(table, node, options, _CountingRng(rng, counts))))

    # sim's own dataclasses.replace on EnergyState is the no-source charge step.
    plain_replace = sim.replace
    charge_replace = tracer.span("energy.charge", plain_replace)
    tracer.patch(sim, "replace", tracer.span("bench.route_replace", lambda obj, **changes: (
        charge_replace if isinstance(obj, energy.EnergyState) else plain_replace)(obj, **changes)))

    # Every beacon-field evaluation, including those made inside world.
    field = tracer.span("world.field", world.intensity_at)
    tracer.patch(world, "intensity_at", field)
    tracer.patch(sim, "intensity_at", tracer.span("world.sense", field))

    # The behaviour bodies are sim's own code; ticks in a state without one idle.
    for state, behaviour in list(sim.BEHAVIORS.items()):
        tracer.patch(sim.BEHAVIORS, state, tracer.span("sim.behaviour", behaviour))
