"""Each verb imports only the modules it runs, and `import foragesim` is lazy.

The module sets are read from `sys.modules` in a fresh interpreter, so these
tests check module names, not timings.
"""

import json
import os
import subprocess
import sys
import textwrap
from importlib import import_module
from pathlib import Path

import pytest

import foragesim

SRC = Path(foragesim.__file__).parents[1]
PARSER = ["foragesim", "foragesim.cli", "foragesim.energy", "foragesim.scenario", "foragesim.world"]
SIMULATOR = ["foragesim.sim", "foragesim.statemachine", "foragesim.weights"]
SUBMODULES = ["energy", "scenario", "scenarios", "sim", "statemachine", "weights", "world"]

# modules that generate code for record types at import (`inspect` comes with `dataclasses`)
CODEGEN = ("dataclasses", "inspect")

# what `python -m foragesim ARGS` runs, with the child's own arguments as ARGS
AS_MAIN = 'import runpy\nrunpy.run_module("foragesim", run_name="__main__", alter_sys=True)'


def loaded(code: str, *args: str, roots: tuple[str, ...] = ("foragesim",)) -> tuple[list[str], int]:
    """The modules under `roots` a fresh interpreter holds after `code`, and its exit code."""
    report = f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))"
    child = f"import json, sys\ntry:\n{textwrap.indent(code, '    ')}\nfinally:\n    {report}\n"
    proc = subprocess.run(
        [sys.executable, "-c", child, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(proc.stdout.splitlines()[-1]), proc.returncode


@pytest.mark.parametrize("verb, modules", [
    (["validate"], PARSER),
    (["run", "--steps", "50"], sorted(PARSER + SIMULATOR)),
    (["mc", "--steps", "50", "--episodes", "2"], sorted(PARSER + SIMULATOR)),
])
def test_each_verb_loads_only_the_modules_it_runs(verb, modules, dual_source_path):
    assert loaded(AS_MAIN, verb[0], str(dual_source_path), *verb[1:]) == (modules, 0)


@pytest.mark.parametrize("verb", [
    ["validate"], ["run", "--steps", "50"], ["mc", "--steps", "50", "--episodes", "2"],
])
def test_no_verb_loads_dataclasses_or_inspect(verb, dual_source_path):
    assert loaded(AS_MAIN, verb[0], str(dual_source_path), *verb[1:], roots=CODEGEN) == ([], 0)


def test_the_simulator_loads_neither_dataclasses_nor_inspect():
    assert loaded("import foragesim.sim", roots=CODEGEN) == ([], 0)


def test_a_bare_import_loads_no_submodule():
    assert loaded("import foragesim") == (["foragesim"], 0)


@pytest.mark.parametrize("code", [
    "import foragesim\nforagesim.weights.WeightTable",
    "from foragesim import WeightTable",
])
def test_a_name_or_module_attribute_loads_its_module_on_first_use(code):
    needs = ["foragesim.energy", "foragesim.scenario", "foragesim.weights", "foragesim.world"]
    assert loaded(code) == (["foragesim", *needs], 0)


def test_every_public_name_is_the_attribute_of_its_module():
    for name in foragesim.__all__:
        home = import_module(f"foragesim.{foragesim._HOME[name]}")
        assert getattr(foragesim, name) is getattr(home, name), name
    for name in SUBMODULES:
        assert getattr(foragesim, name) is import_module(f"foragesim.{name}")


def test_dir_and_star_import_list_the_public_names():
    assert set(foragesim.__all__) | set(SUBMODULES) <= set(dir(foragesim))
    namespace: dict = {}
    exec("from foragesim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(foragesim.__all__)
    assert all(value is getattr(foragesim, name) for name, value in namespace.items())


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'foragesim' has no attribute 'no_such_name'$"):
        foragesim.no_such_name  # noqa: B018
    assert not hasattr(foragesim, "no_such_name")
