"""Package surface: every exported name resolves, and every config knob
has exactly one field."""

import dataclasses
import typing

import bevalign
from bevalign import pairing


def test_every_name_in_all_resolves():
    missing = [name for name in bevalign.__all__ if not hasattr(bevalign, name)]
    assert missing == []
    assert len(set(bevalign.__all__)) == len(bevalign.__all__)


def test_knn_is_the_exported_neighbor_search():
    assert "knn" in bevalign.__all__
    assert bevalign.knn is pairing.knn


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
