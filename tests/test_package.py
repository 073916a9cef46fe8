import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import aoisim


def test_every_exported_name_resolves():
    assert len(aoisim.__all__) == len(set(aoisim.__all__))
    missing = [name for name in aoisim.__all__ if not hasattr(aoisim, name)]
    assert missing == []


def test_star_import_gives_the_export_list():
    namespace = {}
    exec("from aoisim import *", namespace)
    assert set(aoisim.__all__) <= set(namespace)


def test_readme_config_table_lists_every_config_field():
    # the first column of README's "Key config fields" table names every
    # ScenarioConfig field, and nothing else
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Key config fields", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    listed = [name for row in rows
              for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(listed) == len(set(listed))
    assert set(listed) == {f.name for f in dataclasses.fields(aoisim.ScenarioConfig)}


def test_readme_module_references_resolve():
    # every backticked `module.name` in README.md whose module is an aoisim
    # submodule (a call such as `engine.run_many(configs)` included) names
    # an attribute of that module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {path.stem for path in Path(aoisim.__file__).parent.glob("*.py")}
    references = {(module, name) for module, name
                  in re.findall(r"`(?:aoisim\.)?(\w+)\.(\w+)[^`]*`", readme)
                  if module in modules}
    assert references
    missing = [f"{module}.{name}" for module, name in sorted(references)
               if not hasattr(importlib.import_module(f"aoisim.{module}"), name)]
    assert missing == []


def _calls_per_slot_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "calls_per_slot.py"
    spec = importlib.util.spec_from_file_location("calls_per_slot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calls_per_slot_repeat_exactly():
    # the count is the noise-free companion of slots/s: two runs of one
    # config make the same calls
    script = _calls_per_slot_script()
    argv = ["run", "--set", "mode=centralized_learning", "--set", "n_devices=30",
            "--set", "n_rbs=8", "--set", "v_a=0.4", "--seed", "{seed}",
            "--slots", "{slots}", "--out", "{out}", "--quiet"]
    first, second = (script.measure(argv, 20, seed=3) for _ in range(2))
    assert first == second
    assert first["slots"] == 20 and first["per_slot"] > 0
