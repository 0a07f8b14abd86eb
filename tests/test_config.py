"""Config schema: parse, check and echo every section from its dataclass."""

import copy
import json
import re
from pathlib import Path

import pytest

from mvfuse import config
from mvfuse.cli import main
from mvfuse.config import ConfigError, load_config, parse_config, resolved_dict

from test_cli import MALFORMED, base_config, with_value, write_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def variants():
    """The test_cli base config, one change at a time."""
    out = {f"fusion-{kind}": base_config(fusion=kind)
           for kind in ("average", "gated", "cross", "memory", "concat")}
    out["regression-sensd"] = base_config(task="regression", aug="sensd")
    raw = base_config()
    raw["data"] = {"source": "manifest", "manifest": "data/manifest.json",
                   "val_fraction": 0.25, "normalize": False}
    out["manifest"] = raw
    raw = base_config()
    raw["eval"]["scenarios"] = [{"kind": "none"}, {"kind": "only_missing", "view": "radar"},
                                {"kind": "fraction", "view": "optical", "p": 0.5}]
    out["scenarios"] = raw
    raw = base_config()
    raw["eval"].update(folds=2, repeats=2)
    out["kfold"] = raw
    return out


def load(name):
    if name.endswith(".yaml"):
        return load_config(CONFIGS / name)
    return parse_config(variants()[name])


@pytest.mark.parametrize("name", ["example.yaml", "regression.yaml", *variants()])
def test_echo_parses_back_to_the_same_config(name):
    cfg = load(name)
    echoed = json.loads(json.dumps(resolved_dict(cfg)))
    assert parse_config(echoed) == cfg


def test_json_config_file_is_read_as_json(tmp_path):
    cfg = parse_config(with_value("train.lr", 1e-05))
    path = tmp_path / "resolved_config.json"
    path.write_text(json.dumps(resolved_dict(cfg)))
    assert '"lr": 1e-05' in path.read_text()  # YAML 1.1 reads 1e-05 as a string
    assert load_config(path) == cfg


@pytest.mark.parametrize("name", variants())
def test_parsing_leaves_the_input_unchanged(name):
    raw = variants()[name]
    before = copy.deepcopy(raw)
    assert parse_config(raw) == parse_config(raw)
    assert raw == before


def _documented_keys() -> set[str]:
    """Dotted key paths of the schema in the ``mvfuse.config`` docstring."""
    block = config.__doc__.split("Schema")[1].split("\n\n")[1]
    keys, stack = set(), []
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip(" -"))
        key = re.match(r"\s*(?:- )?(\w+):", line).group(1)
        while stack and stack[-1][0] >= indent:
            stack.pop()
        stack.append((indent, key))
        keys.add(".".join(k for _, k in stack))
    return keys


def _echoed_keys(node: dict, prefix: str = "") -> set[str]:
    keys = set()
    for key, value in node.items():
        keys.add(prefix + key)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = value[0]
        if isinstance(value, dict):
            keys |= _echoed_keys(value, f"{prefix}{key}.")
    return keys


def test_accepted_keys_are_the_documented_schema():
    echoed = _echoed_keys(resolved_dict(load_config(CONFIGS / "example.yaml")))
    assert echoed == _documented_keys()


@pytest.mark.parametrize("path, value", MALFORMED)
def test_malformed_value_is_config_error(path, value):
    with pytest.raises(ConfigError):
        parse_config(with_value(path, value))


@pytest.mark.parametrize("path, value, message", [
    ("eval.scenarios", [{"kind": "none"}, {"kind": "bogus"}], "eval.scenarios[1]"),
    ("eval.grid", [0.0, "ab"], "eval.grid[1] must be float"),
    ("train.batch_size", 2.5, "train.batch_size must be int"),
    ("data.synthetic.seed", 3, "unknown key(s) in data.synthetic: seed"),
    ("data.synthetic.views", [{"id": "a", "kind": "temporal"}], "data.synthetic.views[0]"),
])
def test_error_names_the_path(path, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(with_value(path, value))


def test_view_without_id_names_the_missing_key(tmp_path, capsys):
    raw = base_config()
    del raw["data"]["synthetic"]["views"][0]["id"]
    assert main(["train", "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "run")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": "data.synthetic.views[0] is missing required key 'id'"}
    assert not (tmp_path / "run").exists()


def test_config_without_data_section_is_config_error():
    raw = base_config()
    del raw["data"]
    with pytest.raises(ConfigError, match="a synthetic section is required"):
        parse_config(raw)


def test_float_field_takes_an_int_and_int_field_rejects_a_bool():
    cfg = parse_config(with_value("train.lr", 1))
    assert cfg.train.lr == 1.0 and isinstance(cfg.train.lr, float)
    with pytest.raises(ConfigError, match="seed must be int"):
        parse_config(with_value("seed", True))
