"""foragesim: a deterministic grid-world simulator of a recharge-seeking robot.

The robot chooses among feeding strategies (a charging station's IR signal or
track path, a wireless power beacon) using per-option success and failure
weights that are reinforced by experience. Its behaviours run as hierarchical
run-to-completion state machines, its life depends on a battery plus a
wireless-charged capacitor reserve, and death either erases or persists what
it learned, depending on the memory mode.
"""

from .energy import (
    DischargeProfile,
    EnergyProfile,
    EnergyState,
    Thresholds,
    ThresholdWatcher,
    apply_charge,
    mood_of,
    sensor_gain,
    tick_discharge,
)
from .scenario import (
    Diagnostic,
    MachineDef,
    ScenarioDef,
    ScenarioError,
    StateDef,
    TransitionDef,
    parse_scenario,
    parse_scenario_checked,
    serialize_scenario,
)
from .scenarios import BUILTIN_NAMES, builtin_scenario, builtin_scenario_text
from .sim import (
    EpisodeResult,
    SimConfig,
    SurvivalStats,
    TraceEvent,
    run_episode,
    run_life,
    run_monte_carlo,
    write_stats_csv,
    write_trace_jsonl,
)
from .statemachine import (
    AUTO,
    MachineInstance,
    PursuitOutcome,
    StaticContext,
    TransitionRecord,
    UnknownEventError,
    dispatch,
    start_instance,
)
from .weights import (
    WeightEntry,
    WeightTable,
    load_weights,
    record_outcome,
    save_weights,
    select_option,
)
from .world import (
    BeaconSpec,
    CueReading,
    RobotPose,
    StationSpec,
    WorldMap,
    coupling_efficiency,
    detect_station_cues,
    intensity_at,
    poll_beacon,
    step_follow,
    step_seek_intensity,
)

__version__ = "0.1.0"
