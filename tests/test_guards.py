"""Guards on contracts kept outside the package: bench trace targets, README."""

import ast
import importlib
import pathlib
import re

from tvcsim.config import SCHEMA

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_bench_trace_target_resolves():
    # the tracer looks each name up in its module; a missing one breaks --trace 1
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    assert targets
    for target in targets:
        module_name, name, *method = target.split(".")
        obj = vars(importlib.import_module(f"tvcsim.{module_name}"))[name]
        for attr in method:
            obj = vars(obj)[attr]
        assert callable(obj), target


def test_readme_config_table_lists_exactly_the_schema():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(SCHEMA)
