"""Byte-level golden pin of the layout builders.

Every case of ``tests/data/hier_layout_golden.json`` (written by
``benchmarks/bench_layout_build.py --write-golden``) is rebuilt from the
checked-in forest cache and compared digest by digest: layout arrays, codec
side tables, the lowered edge table and the integrity CRCs.
"""

import functools
import json
import os

import pytest

from repro.baselines.cuml_fil import FILForest
from repro.forest.io import load_forest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from repro.layout.verify import layout_digests

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "tests", "data", "hier_layout_golden.json")) as f:
    GOLDEN = json.load(f)


@functools.lru_cache(maxsize=None)
def _trees(name):
    return load_forest(os.path.join(REPO, ".cache", "forests", name)).trees_


def _hier_id(case):
    return f"{case['forest'][:-4]}-SD{case['sd']}-RSD{case['rsd']}-{case['codec']}"


def test_golden_covers_every_forest_params_and_codec():
    assert len(GOLDEN["fil"]) == 6
    assert len(GOLDEN["hier"]) == 6 * 3 * 4
    assert {(c["sd"], c["rsd"]) for c in GOLDEN["hier"]} == {(4, 10), (8, 8), (5, 2)}


@pytest.mark.parametrize("case", GOLDEN["hier"], ids=_hier_id)
def test_hierarchical_layout_matches_golden(case):
    layout = HierarchicalForest.from_trees(
        _trees(case["forest"]),
        LayoutParams(case["sd"], case["rsd"]),
        codec=case["codec"],
    )
    assert layout_digests(layout) == case["digests"]


@pytest.mark.parametrize("case", GOLDEN["fil"], ids=lambda c: c["forest"][:-4])
def test_fil_layout_matches_golden(case):
    layout = FILForest.from_trees(_trees(case["forest"]))
    assert layout_digests(layout) == case["digests"]
