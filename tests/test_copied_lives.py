"""Nonvolatile batches copy every life after one that fixes the rest.

A nonvolatile life that drew no tie, moved no `failures` counter, moved
`successes` only on entries it picked and picked one option per node fixes
the rest of its batch: every later life of the batch is a copy of it
(`sim.run_monte_carlo` says why that is exact). The reference runs every
life, one table threaded through `sim._live` per seed. A batch must give the
reference's results, `final_weights` included, and the same weights-file
bytes after every life, or raise the same `MachineStuckError`; it must run
its lives up to and including the first that fixes the rest, and no more.
"""

import re
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from foragesim import sim
from foragesim.cli import main
from foragesim.scenario import KIND_CHOICE, parse_scenario, parse_scenario_checked
from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario, builtin_scenario_text
from foragesim.sim import (
    MEMORY_NONVOLATILE,
    OUTCOME_SURVIVED,
    EpisodeResult,
    SimConfig,
    run_monte_carlo,
)
from foragesim.statemachine import MachineStuckError
from foragesim.weights import WeightEntry, WeightTable, record_outcome

sys.path.insert(0, str(Path(__file__).parent))
from genscenarios import random_scenario  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import gen  # noqa: E402

# CI's hash-seed variant: both seek weights tied, so the first lives draw
TIED_DUAL_SOURCE = re.sub(r"(?m)^(seek\.[a-z_]*) = .*$", r"\1 = 0.5 0.5",
                          builtin_scenario_text("dual_source"))
# a battery of 20: the first life fails at the station, then feeds wirelessly
HUNGRY_LAB = re.sub(r"(?m)^battery_initial = .*$", "battery_initial = 20",
                    builtin_scenario_text("learning_lab"))

# two machines each hold a choice node `pick`, so they share the entries of
# option `a`. Life 1 picks `a` twice in `first`, then `b` in `second`; by
# life 2, `a`'s two successes a life have halved its failure weight below
# `b`'s, and `second` picks `a` too. So a life that picked two options of a
# node, with no draw and no failure, does not fix the rest of its batch.
SHARED_NODE = """
[machine top entry]
initial -> one
submachine one = first -> again on back
submachine again = first -> two on back
submachine two = second -> rest on back
state rest

[machine first]
initial -> pick
choice pick : a | c
state a -> exit.back on auto
state c -> exit.back on auto
exit back (success)

[machine second]
initial -> pick
choice pick : a | b
state a -> exit.back on auto
state b -> exit.back on auto
exit back (success)

[world]
grid = 8 8
robot.start = 2 2

[energy]
battery_capacity = 10

[weights]
pick.a = 0.9 0.8
pick.b = 0.9 0.15
"""


def _tied(scenario):
    """`scenario` with every option of every choice node seeded 0.5 0.5."""
    weights = {
        (state.name, option): (0.5, 0.5)
        for machine in scenario.machines for state in machine.states
        if state.kind == KIND_CHOICE for option in state.options
    }
    return scenario._replace(seed_weights=weights)


def _why_not(result, draws, before, after):
    """What keeps a life from fixing the rest of its batch, as a set of words
    ("draw", "failure", "two options", "unpicked success"); empty if nothing."""
    picked = result.choices_made
    why = set()
    if draws:
        why.add("draw")
    if len({node for node, _ in picked}) != len(picked):
        why.add("two options")
    for key, entry in after.items():
        then = before.get(key, WeightEntry())
        if entry.failures != then.failures:
            why.add("failure")
        if entry.successes != then.successes and key not in picked:
            why.add("unpicked success")
    return why


def _every_life(cfg, episodes):
    """The no-copy reference: each life run, one table threaded through
    `sim._live`. Returns the results (or, from the first stuck life on, its
    error as a tuple) and, for each life run to its end, `_why_not` it."""
    table = sim._initial_table(cfg)
    results, whys = [], []
    for i in range(episodes):
        before = table.snapshot()
        try:
            result, draws = sim._live(cfg._replace(seed=cfg.seed + i), table, None)
        except MachineStuckError as exc:
            return ("stuck", exc.step, exc.path, exc.event), whys
        results.append(result)
        whys.append(_why_not(result, draws, before, table.snapshot()))
    return results, whys


def _watched(call, *args):
    """`call(*args)` (or its stuck error as a tuple), the weights file's bytes
    after each save, and the seed of each life `sim._live` ran."""
    saved, ran = [], []
    save, live = sim.save_weights, sim._live

    def saving(table, path):
        save(table, path)
        saved.append(Path(path).read_bytes())

    def running(cfg, table, trace):
        ran.append(cfg.seed)
        return live(cfg, table, trace)

    with mock.patch.object(sim, "save_weights", saving), mock.patch.object(sim, "_live", running):
        try:
            out = call(*args)
        except MachineStuckError as exc:
            out = ("stuck", exc.step, exc.path, exc.event)
    return out, saved, ran


def _assert_batch_equals_every_life(cfg, episodes, seen):
    """A nonvolatile batch of `cfg` equals the no-copy reference (see the
    module docstring), run on a weights file of its own that starts as the
    batch's does; the batch then resumes from the file it left, and so does
    the reference. Counts in `seen` what the batches show."""
    ref_cfg = cfg._replace(weights_path=cfg.weights_path.with_name("reference.csv"))
    for start in (cfg.seed, cfg.seed + episodes):
        (ref, whys), ref_saved, ref_ran = _watched(_every_life, ref_cfg._replace(seed=start),
                                                   episodes)
        stats, saved, ran = _watched(run_monte_carlo, cfg._replace(seed=start), episodes)
        fixes = whys.index(set()) if set() in whys else None
        assert ran == (ref_ran if fixes is None else ref_ran[:fixes + 1])
        assert saved == ref_saved
        if type(ref) is tuple:
            assert stats == ref
            seen["stuck"] += 1
            return
        assert stats.results == ref
        # each copy is its own object, and so is each of its dicts
        for attr in (None, "choices_made", "first_choices", "final_weights", "recharges"):
            objects = [r if attr is None else getattr(r, attr) for r in stats.results]
            assert len(set(map(id, objects))) == episodes, attr
        if fixes is None:
            seen["two options, none copied"] += any("two options" in why for why in whys)
        elif fixes < episodes - 1:
            seen["copies"] += 1
            seen["fixed after a draw"] += any("draw" in why for why in whys[:fixes])
            seen["fixed after a failure"] += any("failure" in why for why in whys[:fixes])


def _config(scenario, seed, steps, tmp_path):
    return SimConfig(scenario, seed=seed, max_steps=steps, memory_mode=MEMORY_NONVOLATILE,
                     weights_path=tmp_path / "batch.csv")


class TestDifferential:
    def test_builtins_tied_and_hungry(self, tmp_path):
        seen = Counter()
        cases = [(builtin_scenario(name), 0, 1500) for name in BUILTIN_NAMES] + [
            (parse_scenario(TIED_DUAL_SOURCE), 3, 3000),
            (parse_scenario(HUNGRY_LAB), 3, 3000),
        ]
        for i, (scenario, seed, steps) in enumerate(cases):
            path = tmp_path / str(i)
            path.mkdir()
            _assert_batch_equals_every_life(_config(scenario, seed, steps, path), 6, seen)
        # each batch copies, and so does the batch that resumes from its file; the
        # tied lives draw first, and learning_lab, as shipped and hungry, fails first
        assert seen == Counter({"copies": 12, "fixed after a draw": 1, "fixed after a failure": 2})

    def test_a_life_that_only_fails_and_a_node_that_picks_two(self, tmp_path):
        # learning_lab at one step: life 1 picks the station twice and fails
        # twice, with one option; life 2 fails once more and picks the beacon
        seen = Counter()
        for i, (scenario, steps, whys) in enumerate([
            (builtin_scenario("learning_lab"), 1, [{"failure"}, {"failure", "two options"}, set()]),
            (parse_scenario(SHARED_NODE), 50, [{"two options"}, set(), set()]),
        ]):
            path = tmp_path / str(i)
            path.mkdir()
            cfg = _config(scenario, 1, steps, path)
            assert _every_life(cfg._replace(weights_path=path / "whys.csv"), 6)[1][:3] == whys
            _assert_batch_equals_every_life(cfg, 6, seen)
        assert seen == Counter({"copies": 4, "fixed after a failure": 1})

    def test_learning_lives_items(self, tmp_path):
        seen = Counter()
        for seed in range(6):
            for i, item in enumerate(gen.learning_lives(seed)):
                path = tmp_path / f"{seed}.{i}"
                path.mkdir()
                cfg = _config(parse_scenario(item.text), item.seed, item.steps, path)
                _assert_batch_equals_every_life(cfg, item.episodes, seen)
        # 102 items, each a batch and its resumed batch: 84 copy (36 after a
        # draw, 30 after a failure), and 120 pick two options and copy nothing
        assert seen["copies"] >= 60 and seen["two options, none copied"] >= 60
        assert seen["fixed after a draw"] >= 20 and seen["fixed after a failure"] >= 20

    def test_generated_scenarios(self, tmp_path):
        seen = Counter()
        for seed in range(120):
            scenario = random_scenario(seed)
            path = tmp_path / str(seed)
            path.mkdir()
            cfg = _config(_tied(scenario) if seed % 2 else scenario, seed, 300, path)
            _assert_batch_equals_every_life(cfg, 6, seen)
        # 222 of the 235 batches copy (most make no choice at all), 5 get stuck
        assert seen["copies"] >= 150 and seen["stuck"] >= 1
        assert seen["fixed after a draw"] >= 1 and seen["fixed after a failure"] >= 1
        assert seen["two options, none copied"] >= 1


@pytest.mark.parametrize("steps, feeds", [(400, 17), (1500, 65)])
def test_the_learning_lab_batch_runs_two_lives(tmp_path, steps, feeds):
    # life 1 fails at the station twice, picks the beacon and dies at step 3;
    # life 2 only feeds at the beacon, and fixes the rest of the batch
    cfg = _config(builtin_scenario("learning_lab"), 1, steps, tmp_path)
    stats, saved, ran = _watched(run_monte_carlo, cfg, 100)
    assert (ran, len(saved)) == ([1, 2], 100)
    successes = [r.final_weights[("seek", "find_wireless_power")].successes
                 for r in stats.results]
    assert {b - a for a, b in zip(successes, successes[1:])} == {feeds}


def test_validate_warns_that_the_shared_node_shares_weights(tmp_path, capsys):
    # `second`'s `pick` moves with `first`'s successes on `pick.a`; a warning
    # leaves validate's exit code 0
    message = "choice 'pick' is also declared in machine 'first'; they share weights"
    _, diags = parse_scenario_checked(SHARED_NODE)
    line = SHARED_NODE.splitlines().index("choice pick : a | b") + 1
    assert [(d.severity, d.line, d.message) for d in diags] == [("warning", line, message)]
    path = tmp_path / "shared.scn"
    path.write_text(SHARED_NODE)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().err == f"{path}:{line}:1: warning: {message}\n"


def test_a_success_on_an_option_not_picked_fixes_nothing():
    # the simulator records outcomes only for options its life picked, so
    # only a hand-built life can show this condition
    table = WeightTable()
    before = table.snapshot()
    record_outcome(table, "pick", "a", success=True)
    result = EpisodeResult(OUTCOME_SURVIVED, 5, None, {("pick", "a"): 1}, {"pick": "a"}, {}, {})
    assert sim._gains(result, [], before, table) == Counter({("pick", "a"): 1})
    record_outcome(table, "pick", "b", success=True)
    assert sim._gains(result, [], before, table) is None
