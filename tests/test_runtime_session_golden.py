"""Golden end-to-end parity: the runtime seam reproduces legacy classify().

The CRC/seconds pairs below were captured from the pre-runtime-refactor
``HierarchicalForestClassifier.classify()`` on a fixed synthetic workload.
Every (platform, variant) pair in the kernel registry must keep producing
byte-identical predictions and seconds within 1e-9 when the same
configuration is compiled into a plan and run through a RuntimeSession —
and through the (now wrapping) classifier front door.
"""

import zlib

import numpy as np
import pytest

from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import RunConfig
from repro.datasets.profiles import make_synthetic_forest
from repro.kernels import registered_pairs
from repro.layout.hierarchical import LayoutParams
from repro.runtime import RuntimeSession, compile_plan

#: (platform, variant) -> (crc32 of int64 prediction bytes, simulated seconds)
#: captured before the runtime refactor (same forest, same queries).
GOLDEN = {
    ("fpga", "collaborative"): (1692265041, 0.07558798230055781),
    ("fpga", "csr"): (1692265041, 0.024933303452081723),
    ("fpga", "hybrid"): (1692265041, 0.002537541068759342),
    ("fpga", "independent"): (1692265041, 0.0064944681459808),
    ("gpu", "collaborative"): (1692265041, 1.9775949367088608e-05),
    ("gpu", "csr"): (1692265041, 1.4638863636363634e-05),
    ("gpu", "cuml"): (1692265041, 7.223204545454545e-06),
    ("gpu", "hybrid"): (1692265041, 6.6729772727272735e-06),
    ("gpu", "independent"): (1692265041, 8.033340909090912e-06),
}

LAYOUT = LayoutParams(4, 6)


@pytest.fixture(scope="module")
def workload():
    forest, X = make_synthetic_forest(
        n_trees=6, depth=9, n_features=12, n_queries=512, leaf_prob=0.1, seed=7
    )
    return forest, X


@pytest.fixture(scope="module")
def session(workload):
    forest, _ = workload
    return RuntimeSession.from_forest(forest)


def _crc(predictions: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(predictions, dtype=np.int64).tobytes())


def test_registry_is_fully_covered():
    assert set(registered_pairs()) == set(GOLDEN)


@pytest.mark.parametrize("pair", sorted(GOLDEN), ids=lambda p: f"{p[0]}-{p[1]}")
def test_session_matches_pre_refactor_classify(pair, workload, session):
    platform, variant = pair
    forest, X = workload
    plan = compile_plan(
        forest, RunConfig(platform=platform, variant=variant, layout=LAYOUT)
    )
    res = session.run(plan, X)
    crc, seconds = GOLDEN[pair]
    assert _crc(res.predictions) == crc
    assert res.seconds == pytest.approx(seconds, abs=1e-9)


@pytest.mark.parametrize(
    "pair", [("gpu", "hybrid"), ("fpga", "independent")], ids=lambda p: f"{p[0]}-{p[1]}"
)
def test_classifier_front_door_matches_golden(pair, workload):
    platform, variant = pair
    forest, X = workload
    clf = HierarchicalForestClassifier.from_forest(forest)
    res = clf.classify(
        X, RunConfig(platform=platform, variant=variant, layout=LAYOUT)
    )
    crc, seconds = GOLDEN[pair]
    assert _crc(res.predictions) == crc
    assert res.seconds == pytest.approx(seconds, abs=1e-9)

