"""Package surface: every exported name resolves, no module reaches into
another's private names, records serialise through one config
(de)serialisation, every config knob has exactly one field and a declared
rule, and both ways of building a config enforce the same rules."""

import ast
import dataclasses
import importlib
import importlib.util
import math
import re
import sys
import typing
from pathlib import Path

import pytest

import bevalign
from bevalign import pairing
from bevalign.config import ConfigError, field_types, to_dict


def test_every_name_in_all_resolves():
    missing = [name for name in bevalign.__all__ if not hasattr(bevalign, name)]
    assert missing == []
    assert len(set(bevalign.__all__)) == len(bevalign.__all__)


def test_no_module_imports_another_modules_private_names():
    # A helper that two modules share is part of an API and gets a public
    # name; tests may still import private helpers.
    src = Path(bevalign.__file__).resolve().parent
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bevalign"
            )
            if internal:
                private += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert private == []


def test_records_serialise_through_config_to_dict_and_from_dict():
    # config.to_dict/from_dict write and read every record, whose JSON keys
    # are its field names.
    src = Path(bevalign.__file__).resolve().parent
    own = []
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef):
                own += [
                    f"{path.stem}.{cls.name}.{node.name}"
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name in ("to_dict", "from_dict")
                ]
    assert own == []


def test_every_runtime_dependency_is_imported_by_the_package():
    # A dependency that no module imports is only an install cost.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    src = Path(bevalign.__file__).resolve().parent
    imported = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    # the distribution name before any version spec, as its import name
    names = [re.match(r"[\w.-]+", dep).group().lower().replace("-", "_") for dep in declared]
    assert names and [n for n in names if n not in imported] == []


def test_knn_is_the_exported_neighbor_search():
    assert "knn" in bevalign.__all__
    assert bevalign.knn is pairing.knn


def test_every_traced_function_resolves(monkeypatch):
    # bench/spans.py patches these by name for `bench/run.py --trace 1`; a
    # rename should fail here, not in a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{func}"
        for _, module, func, _, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"bevalign.{module}"), func, None))
    ]
    assert spans.TRACED and missing == []


def test_each_config_type_holds_exactly_one_field():
    # A config dataclass reachable from two fields would be one knob with two
    # homes, kept equal only by whoever builds the config.
    seen: dict[type, list[str]] = {}

    def walk(cls, path):
        for name, tp in typing.get_type_hints(cls).items():
            for t in (tp, *typing.get_args(tp)):
                if dataclasses.is_dataclass(t):
                    seen.setdefault(t, []).append(f"{path}{name}")
                    walk(t, f"{path}{name}.")

    walk(bevalign.ExperimentConfig, "")
    assert {t.__name__: p for t, p in seen.items() if len(p) > 1} == {}
    assert set(seen) >= {bevalign.SceneConfig, bevalign.GridMeta, bevalign.LossConfig}


# Numeric knobs that declare no bound in their field metadata, each with the
# rule that covers it instead.
UNBOUNDED_KNOBS = {
    "base_seed",  # any integer: hash64 folds it into 64 bits
    # the grid extents: GridMeta checks them against each other
    "scene.meta.x_min",
    "scene.meta.x_max",
    "scene.meta.y_min",
    "scene.meta.y_max",
    "scene.margin",  # may be negative; SceneConfig checks the placement box it leaves
    "instance.kernel",  # odd and >= 3, checked by hand to raise InvalidKernelError
}


def config_knobs(cls, path=""):
    """(dotted path, annotation, field) of every leaf knob under cls."""
    for f in dataclasses.fields(cls):
        tp = field_types(cls)[f.name]
        inner = typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else tp
        if dataclasses.is_dataclass(inner):
            yield from config_knobs(inner, f"{path}{f.name}.")
        else:
            yield f"{path}{f.name}", inner, f


def test_no_function_keeps_a_second_default_for_a_config_knob():
    # A stage function takes its config record; a parameter named after a
    # knob, with that knob's default, is a second home for the knob, whose
    # rules the function would have to repeat.  The oracles keep their own
    # reference signatures.
    defaults: dict[str, list] = {}
    for _, _, f in config_knobs(bevalign.ExperimentConfig):
        if f.default is not dataclasses.MISSING:
            defaults.setdefault(f.name, []).append(f.default)
        elif f.default_factory is not dataclasses.MISSING:
            defaults.setdefault(f.name, []).append(f.default_factory())
    src = Path(bevalign.__file__).resolve().parent
    copies = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "oracles":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args]
            with_defaults = [
                *zip(params[len(params) - len(a.defaults) :], a.defaults),
                *((arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None),
            ]
            for arg, d in with_defaults:
                try:
                    value = ast.literal_eval(d)
                except ValueError:
                    continue
                if value in defaults.get(arg.arg, ()):
                    copies.append(f"{path.stem}.{node.name}({arg.arg}={value!r})")
    assert copies == []


def test_every_numeric_knob_is_bounded_and_every_string_knob_is_a_choice():
    unbounded, free_strings = set(), set()
    for path, tp, f in config_knobs(bevalign.ExperimentConfig):
        if tp in (int, float) and not f.metadata:
            unbounded.add(path)
        if tp is str:
            free_strings.add(path)
    assert unbounded == UNBOUNDED_KNOBS
    assert free_strings == {"out_dir"}


@pytest.mark.parametrize(
    "cls,section,values",
    [
        (bevalign.SceneConfig, "scene", {"c_lidar": 0}),
        (bevalign.SceneConfig, "scene", {"cluster_low": 3, "cluster_high": 2}),
        (bevalign.TrainConfig, "train", {"step_size": math.inf}),
        (bevalign.LossConfig, "loss", {"temperature": math.inf}),
        (bevalign.LossConfig, "loss", {"mode": "euclidean"}),
        (bevalign.InstanceConfig, "instance", {"kernel": 4}),
        (bevalign.GridMeta, "grid", {**to_dict(bevalign.default_meta()), "resolution": 0.0}),
    ],
)
def test_python_and_json_configs_fail_on_the_same_rule(cls, section, values):
    with pytest.raises(ConfigError) as py:
        cls(**values)
    with pytest.raises(ConfigError) as js:
        bevalign.parse_config({section: values})
    assert js.value.field == f"{section}.{py.value.field}"
    assert js.value.reason == py.value.reason
