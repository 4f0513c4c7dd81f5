"""The README's quick starts stay in step with the package.

The YAML config must decode, and every call the Python quick start makes to
a fedcast name must bind to that name's signature. The Python block trains
for 30 rounds, so it is parsed, never run.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import yaml

from fedcast.experiment import config_from_dict

README = (Path(__file__).parents[1] / "README.md").read_text()


def block(pattern):
    match = re.search(pattern, README, re.S)
    assert match, pattern
    return match.group(1)


def test_readme_config_decodes():
    raw = yaml.safe_load(block(r"```yaml\n(# experiment\.yaml\n.*?)```"))
    config = config_from_dict(raw)
    assert (config.setting, config.model.architecture) == ("federated", "lstm")


def test_readme_api_calls_bind_to_signatures():
    tree = ast.parse(block(r"## Quick start \(API\)\n\n```python\n(.*?)```"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("fedcast"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    assert names

    def resolve(func):
        # a fedcast name, or an attribute of one (SyntheticSpec.sampled)
        if isinstance(func, ast.Name):
            return names.get(func.id)
        if isinstance(func, ast.Attribute):
            owner = resolve(func.value)
            return None if owner is None else getattr(owner, func.attr)
        return None

    checked = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = resolve(node.func)
        if callee is None:
            continue
        inspect.signature(callee).bind(
            *[None] * len(node.args), **{kw.arg: None for kw in node.keywords}
        )
        checked.add(ast.unparse(node.func))
    assert {"run_federated", "FederationConfig", "AggregatorConfig"} <= checked
