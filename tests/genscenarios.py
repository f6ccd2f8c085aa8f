"""Seeded generator of random valid scenarios for round-trip, fuzz and
simulator tests.

Machines reference only later machines, so composition is acyclic. Some
states take the names the simulator binds behaviour and charging to, and
some arms react to the events the simulator emits, so generated scenarios
reach the whole tick loop. Arms may be `auto`, guarded or not. A guarded
`auto` arm may point anywhere, so the drain can cycle while the guard holds
(`validate` warns). An unguarded one points only forward, to a final or to
an exit; and where a sub-machine may cross an exit through unguarded `auto`
arms alone, the composite's arms point only forward too. So no cycle of
unguarded `auto` arms exists and every scenario validates without errors.
Numeric values stick to short decimals that the canonical serializer
reproduces exactly.
"""

import random

from foragesim.energy import DischargeProfile, EnergyProfile, Thresholds
from foragesim.scenario import (
    KIND_CHOICE,
    KIND_COMPOSITE,
    KIND_FINAL,
    MachineDef,
    ScenarioDef,
    StateDef,
    TransitionDef,
)
from foragesim.world import BeaconSpec, StationSpec, WorldMap

_EVENTS = ("go", "stop", "ping", "pong", "done", "fail", "retry")
# what the simulator feeds the machines: sensing, charging and hunger events
_SIM_EVENTS = (
    "located", "lost", "found", "no_signal", "waitTimer_expired", "power_low", "power_lower",
)
_SIM_STATES = (
    "follow_ir_signal", "follow_track_path", "poll_power_beacon", "engage_resonance",
    "navigate_proximity", "seek_intensity", "recharge", "charge",
)
_GUARDS = (None, None, None, "powerLow", "powerLower", "batteryFull", "isSignalSufficient")


def _name(rng, prefix, i):
    return f"{prefix}{i}_{rng.randrange(1000)}"


def _state_names(rng, n_states):
    names = []
    for i in range(n_states):
        sim_names = [s for s in _SIM_STATES if s not in names]
        names.append(rng.choice(sim_names) if rng.random() < 0.4 else _name(rng, "s", i))
    return names


def _random_machine(rng, name, is_entry, later_machines, instant_exit):
    """One machine; `instant_exit` collects the names of machines that may
    cross an exit through unguarded `auto` arms alone."""
    n_states = rng.randint(1, 5)
    state_names = _state_names(rng, n_states)
    exits = []
    if not is_entry or rng.random() < 0.5:
        n_exits = rng.randint(1, 2)
        for i in range(n_exits):
            tag = "success" if i == 0 and rng.random() < 0.8 else "failure"
            exits.append((_name(rng, "x", i), tag))
    final_name = _name(rng, "f", 0) if rng.random() < 0.5 else None

    targets = list(state_names)
    if final_name:
        targets.append(final_name)

    exit_targets = [f"exit.{e}" for e, _ in exits]
    sinks = ([final_name] if final_name else []) + exit_targets
    states = []
    for index, sname in enumerate(state_names):
        forward = state_names[index + 1:] + sinks
        roll = rng.random()
        others = [n for n in state_names if n != sname]
        if roll < 0.2 and len(others) >= 2:
            options = rng.sample(others, k=min(len(others), rng.randint(2, 3)))
            states.append(StateDef(name=sname, kind=KIND_CHOICE, options=tuple(options)))
            continue
        inners = [m for m in later_machines if forward or m.name not in instant_exit]
        if roll < 0.35 and inners:
            inner = rng.choice(inners)
            choices = forward if inner.name in instant_exit else targets + exit_targets
            arms = tuple(
                TransitionDef(event=exit_name, target=rng.choice(choices), guard=None)
                for exit_name, _ in inner.exits
            )
            if inner.name in instant_exit and any(a.target in exit_targets for a in arms):
                instant_exit.add(name)
            states.append(
                StateDef(name=sname, kind=KIND_COMPOSITE, machine=inner.name, transitions=arms)
            )
            continue
        arms = []
        for _ in range(rng.randint(0, 3)):
            event = rng.choice(_EVENTS + _SIM_EVENTS + ("auto",) * 4)
            guard = rng.choice(_GUARDS)
            if event == "auto" and (guard is None or rng.random() < 0.5):
                if not forward:
                    continue
                target = rng.choice(forward)
                if guard is None and target in exit_targets:
                    instant_exit.add(name)
            else:
                target = rng.choice(targets + exit_targets)
            arms.append(TransitionDef(event=event, target=target, guard=guard))
        states.append(StateDef(name=sname, transitions=tuple(arms)))

    if final_name:
        states.append(StateDef(name=final_name, kind=KIND_FINAL))

    return MachineDef(
        name=name,
        initial=state_names[0],
        states=tuple(states),
        exits=tuple(exits),
        is_entry=is_entry,
    )


def _random_world(rng):
    width = rng.randint(4, 32)
    height = rng.randint(4, 32)
    start = (rng.randrange(width), rng.randrange(height))
    station = None
    if rng.random() < 0.6:
        pos = (rng.randrange(width), rng.randrange(height))
        track = []
        if rng.random() < 0.7:
            cell = pos
            track = [cell]
            for _ in range(rng.randint(1, 6)):
                dx, dy = rng.choice(((0, 1), (0, -1), (1, 0), (-1, 0)))
                nxt = (cell[0] + dx, cell[1] + dy)
                if not (0 <= nxt[0] < width and 0 <= nxt[1] < height) or nxt in track:
                    break
                track.append(nxt)
                cell = nxt
            track.reverse()  # generator walks outward; track runs toward the station
        gaps = frozenset()
        if len(track) > 3 and rng.random() < 0.3:
            gaps = frozenset({rng.choice(track[1:-1])})
        station = StationSpec(
            pos=pos,
            ir_radius=round(rng.uniform(1, 20), 2),
            track=tuple(track),
            charge_rate=round(rng.uniform(0.5, 8), 2),
            gaps=gaps,
        )
    beacon = None
    if rng.random() < 0.6:
        beacon = BeaconSpec(
            pos=(rng.randrange(width), rng.randrange(height)),
            tx_power=round(rng.uniform(0.5, 8), 2),
            d0=round(rng.uniform(1, 8), 2),
            resonance_radius=round(rng.uniform(1, 6), 2),
            poll_radius=round(rng.uniform(2, 20), 2),
            i_min=round(rng.uniform(0.1, 2), 2),
        )
    return WorldMap(width=width, height=height, robot_start=start, station=station, beacon=beacon)


def _random_energy(rng):
    capacity = round(rng.uniform(10, 500), 2)
    low = round(rng.uniform(0.3, 0.9), 2)
    return EnergyProfile(
        battery_capacity=capacity,
        capacitor_capacity=round(rng.uniform(0, 50), 2),
        battery_initial=round(rng.uniform(0, capacity), 2),
        rates=DischargeProfile(
            idle=round(rng.uniform(0.01, 1), 2),
            move=round(rng.uniform(0, 2), 2),
            sense=round(rng.uniform(0, 1), 2),
            process=round(rng.uniform(0, 1), 2),
        ),
        thresholds=Thresholds(low_frac=low, lower_frac=round(low / 2, 3)),
        gain_min=round(rng.uniform(0.05, 1), 2),
        max_charge_ticks=rng.choice((0, 0, rng.randint(1, 500))),
    )


def random_scenario(seed):
    rng = random.Random(seed)
    n_machines = rng.randint(1, 4)
    machines = []
    instant_exit = set()
    # build from the deepest machine up so composites only reference later names
    for i in reversed(range(1, n_machines)):
        machines.insert(0, _random_machine(rng, _name(rng, "m", i), False, machines, instant_exit))
    entry = _random_machine(rng, _name(rng, "top", 0), True, machines, instant_exit)
    machines.insert(0, entry)

    weights = {}
    for m in machines:
        for st in m.states:
            if st.kind == KIND_CHOICE:
                for option in st.options:
                    if rng.random() < 0.8:
                        weights[(st.name, option)] = (
                            round(rng.random(), 3),
                            round(rng.random(), 3),
                        )

    return ScenarioDef(
        machines=tuple(machines),
        world=_random_world(rng),
        energy_profile=_random_energy(rng),
        seed_weights=weights,
        name=f"generated_{seed}",
    )
