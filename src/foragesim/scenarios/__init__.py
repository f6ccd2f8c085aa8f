"""Built-in scenario library, shipped as plain .scn data files."""

from __future__ import annotations

from importlib import resources

from ..scenario import ScenarioDef, parse_scenario

BUILTIN_NAMES = ("station_only", "wireless_only", "dual_source", "learning_lab")


def builtin_scenario_text(name: str) -> str:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"no built-in scenario named '{name}'")
    return resources.files(__package__).joinpath(f"{name}.scn").read_text(encoding="utf-8")


def builtin_scenario(name: str) -> ScenarioDef:
    return parse_scenario(builtin_scenario_text(name), name=name)
