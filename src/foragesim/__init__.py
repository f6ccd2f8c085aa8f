"""foragesim: a deterministic grid-world simulator of a recharge-seeking robot.

The robot chooses among feeding strategies (a charging station's IR signal or
track path, a wireless power beacon) using per-option success and failure
weights that are reinforced by experience. Its behaviours run as hierarchical
run-to-completion state machines, its life depends on a battery plus a
wireless-charged capacitor reserve, and death either erases or persists what
it learned, depending on the memory mode.

`import foragesim` loads none of the modules below (PEP 562). Each public
name, and each module as an attribute (`foragesim.sim`), is imported on first
use, so a caller pays only for what it touches: `foragesim validate` never
loads the simulator.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

# module -> the public names it defines, each one also a name of this package
_PUBLIC = {
    "energy": "DischargeProfile EnergyProfile EnergyState Thresholds ThresholdWatcher"
              " apply_charge mood_of sensor_gain tick_discharge",
    "scenario": "Diagnostic MachineDef ScenarioDef ScenarioError StateDef TransitionDef"
                " parse_scenario parse_scenario_checked serialize_scenario",
    "scenarios": "BUILTIN_NAMES builtin_scenario builtin_scenario_text",
    "sim": "EpisodeResult SimConfig SurvivalStats TraceEvent run_episode run_life"
           " run_monte_carlo write_stats_csv write_trace_jsonl",
    "statemachine": "AUTO MachineInstance PursuitOutcome StaticContext TransitionRecord"
                    " UnknownEventError dispatch start_instance",
    "weights": "WeightEntry WeightTable load_weights record_outcome save_weights select_option",
    "world": "BeaconSpec CueReading StationSpec WorldMap coupling_efficiency"
             " detect_station_cues intensity_at poll_beacon step_follow step_seek_intensity",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return _import(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
