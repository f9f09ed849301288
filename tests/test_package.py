"""Package surface: every exported name resolves."""

import bevalign
from bevalign import pairing


def test_every_name_in_all_resolves():
    missing = [name for name in bevalign.__all__ if not hasattr(bevalign, name)]
    assert missing == []
    assert len(set(bevalign.__all__)) == len(bevalign.__all__)


def test_knn_is_the_exported_neighbor_search():
    assert "knn" in bevalign.__all__
    assert bevalign.knn is pairing.knn
