"""The per-layer benchmark's call-site spans still fit the simulator.

`perfbench/spans.py` rebinds names in `foragesim.sim`; a refactor that drops
or stops calling one of them breaks `perfbench/run.py --trace 1`. This test
installs the spans as the benchmark does, without editing anything under
`perfbench/`, and checks the counts the per-layer metrics are built from.
"""

from pathlib import Path

import pytest

from foragesim import energy, sim
from foragesim.scenarios import builtin_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def _charging_ticks(trace):
    return sum(1 for row in trace if row.event is None and row.mood == "charging")


def test_spans_count_ticks_and_trace_rows(spans):
    cfg = sim.SimConfig(scenario=builtin_scenario("station_only"), seed=0, max_steps=3000)
    # each mc life is the run_episode life of its seed, whose trace shows
    # the ticks it charged on
    charging = [_charging_ticks(sim.run_episode(cfg._replace(seed=s))[1]) for s in (0, 1)]
    original_trace_event = sim.TraceEvent
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        stats = sim.run_monte_carlo(cfg, 2)
        mc_ticks = sum(r.lifetime for r in stats.results)
        assert mc_ticks > 0
        assert tracer.calls["sim.trace_build"] == 0
        # quiet ticks advance without tick_discharge or apply_charge; the
        # rest still call them
        mc_discharges = tracer.calls["energy.discharge"]
        assert 0 < mc_discharges < mc_ticks
        mc_charges = tracer.calls["energy.charge"]
        assert 0 < mc_charges < sum(charging)

        result, trace = sim.run_episode(cfg)
        # read before anything iterates the trace, which builds its stretches' rows
        built = tracer.calls["sim.trace_build"]
        full_ticks = tracer.calls["energy.discharge"] - mc_discharges
        assert 0 < full_ticks < result.lifetime
        assert 0 < tracer.calls["energy.charge"] - mc_charges < charging[0] == _charging_ticks(trace)
    finally:
        tracer.restore()
    # the run builds a row for each transition, choice and outcome it
    # dispatches, and none for a tick: a full tick and the quiet stretch after
    # it are one record. A jump builds its period's rows once, to count them;
    # each replayed period builds its rows only when they are read
    own = sum(type(item) is sim.TraceEvent for item in trace._items)
    jumps = {id(item.period): item for item in trace._items if type(item) is sim._Period}
    counted = sum(type(row) is sim.TraceEvent for item in jumps.values() for row in sim._unpack(item))
    assert jumps and built == own + counted < sum(1 for row in trace if row.event is not None)
    assert built < len(trace)
    assert sim.TraceEvent is original_trace_event
    assert sim.tick_discharge is energy.tick_discharge


def test_spans_count_every_transition_record(spans, tmp_path, monkeypatch):
    # on_dispatch counts the records without a note; a traced life turns
    # each of them into one transition or choice row. A replayed period of a
    # feeding cycle writes its rows without dispatching, so the lives here
    # simulate every period in full, with the jump patched to 0 steps
    monkeypatch.setattr(sim._Episode, "_periods", lambda episode, step: 0)
    cfg = sim.SimConfig(
        scenario=builtin_scenario("learning_lab"), max_steps=2000,
        memory_mode=sim.MEMORY_NONVOLATILE, weights_path=tmp_path / "w.csv",
    )
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traces = [sim.run_episode(cfg._replace(seed=s))[1] for s in range(4)]
    finally:
        tracer.restore()
    events = [row.event for trace in traces for row in trace if row.event is not None]
    outcomes = sum(1 for event in events if event.startswith("outcome_"))
    assert events.count("choice") > 0 and outcomes > 0
    assert tracer.calls["statemachine.dispatch"] > 0
    assert tracer.counts["statemachine.transitions"] == len(events) - outcomes


def test_spans_count_the_in_process_cli(spans, dual_source_path, capsys):
    # cli resolves sim's functions from sim when they are looked up or called,
    # so the spans on sim see the CLI's calls, and restore leaves both as they were
    from foragesim import cli, scenario

    names = ("run_episode", "run_monte_carlo", "write_trace_jsonl", "write_stats_csv")
    originals = {name: getattr(sim, name) for name in names}
    parse, main = scenario.parse_scenario_checked, cli.main
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["validate", str(dual_source_path)]) == 0
        assert cli.main(["mc", str(dual_source_path), "--steps", "200", "--episodes", "2"]) == 0
    finally:
        tracer.restore()
    assert capsys.readouterr().out.startswith("survival=")
    assert tracer.calls["scenario.parse"] >= 1
    assert tracer.calls["sim.mc"] == 1 and tracer.calls["cli.main"] == 2
    for name in names:
        assert getattr(cli, name) is getattr(sim, name) is originals[name]
    assert cli.parse_scenario_checked is scenario.parse_scenario_checked is parse
    assert cli.main is main
