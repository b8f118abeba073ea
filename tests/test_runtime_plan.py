"""Tests for ExecutionPlan: validation, labels, exact JSON round-trip."""

import pytest

from repro.fpgasim.replication import HYBRID_SPLIT_4S10C, Replication
from repro.layout.hierarchical import LayoutParams
from repro.runtime import CPU_PLATFORM, ExecutionPlan, PlanError
from repro.runtime.plan import check_pair, valid_pairs_message


class TestValidation:
    def test_defaults_are_valid(self):
        plan = ExecutionPlan()
        assert plan.platform == "gpu"
        assert plan.variant == "hybrid"

    def test_invalid_pair_raises_plan_error(self):
        # Regression: cuml on FPGA used to surface as a bare KeyError deep
        # in kernel lookup; now it's a PlanError listing the valid pairs.
        with pytest.raises(PlanError) as exc:
            ExecutionPlan(platform="fpga", variant="cuml")
        msg = str(exc.value)
        assert "fpga" in msg and "cuml" in msg
        assert "valid (platform, variant) combinations" in msg
        assert "gpu/hybrid" in msg

    def test_unknown_platform_raises_plan_error(self):
        with pytest.raises(PlanError):
            ExecutionPlan(platform="tpu", variant="hybrid")

    def test_unknown_variant_raises_plan_error(self):
        with pytest.raises(PlanError):
            ExecutionPlan(platform="gpu", variant="quantum")

    def test_check_pair_message_lists_all_pairs(self):
        msg = valid_pairs_message()
        for pair in ("gpu/csr", "gpu/cuml", "fpga/independent", "fpga/hybrid"):
            assert pair in msg
        with pytest.raises(PlanError):
            check_pair("fpga", "cuml")

    def test_cpu_platform_accepts_any_variant(self):
        plan = ExecutionPlan(platform=CPU_PLATFORM, variant="hybrid")
        assert plan.platform == "cpu"
        check_pair("cpu", "anything")  # the oracle has no kernel registry

    def test_enum_inputs_normalised_to_strings(self):
        from repro.core.config import KernelVariant, Platform

        plan = ExecutionPlan(platform=Platform.FPGA, variant=KernelVariant.CSR)
        assert plan.platform == "fpga"
        assert plan.variant == "csr"

    def test_bad_layout_type(self):
        with pytest.raises(PlanError):
            ExecutionPlan(layout=(6, 6))

    def test_frozen(self):
        plan = ExecutionPlan()
        with pytest.raises(Exception):
            plan.platform = "fpga"


class TestLabels:
    def test_label_matches_run_config_label(self):
        plan = ExecutionPlan(variant="hybrid", layout=LayoutParams(6, 10))
        assert plan.label == "gpu-hybrid-SD6-RSD10"
        assert plan.to_run_config().label == plan.label

    def test_csr_label_has_no_sd(self):
        assert ExecutionPlan(variant="csr").label == "gpu-csr"

    def test_replicated_fpga_label(self):
        plan = ExecutionPlan(
            platform="fpga",
            variant="independent",
            layout=LayoutParams(8),
            replication=Replication(4, 12),
        )
        assert "4S12C" in plan.label


class TestRunConfigBridge:
    def test_round_trip_through_run_config(self):
        plan = ExecutionPlan(
            platform="fpga",
            variant="hybrid",
            layout=LayoutParams(6, 10),
            replication=HYBRID_SPLIT_4S10C,
        )
        cfg = plan.to_run_config()
        assert cfg.platform.value == "fpga"
        assert cfg.variant.value == "hybrid"
        assert cfg.layout == plan.layout
        assert cfg.replication == plan.replication

    def test_cpu_plan_has_no_run_config(self):
        plan = ExecutionPlan(platform=CPU_PLATFORM, variant="hybrid")
        with pytest.raises(PlanError):
            plan.to_run_config()


class TestJsonRoundTrip:
    PLANS = [
        ExecutionPlan(),
        ExecutionPlan(platform="gpu", variant="csr"),
        ExecutionPlan(platform="gpu", variant="cuml"),
        ExecutionPlan(
            platform="fpga",
            variant="hybrid",
            layout=LayoutParams(6, 10),
            replication=HYBRID_SPLIT_4S10C,
            source="autotuned",
            cost_estimate_s=1.25e-4,
        ),
        ExecutionPlan(platform=CPU_PLATFORM, variant="independent"),
    ]

    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.label)
    def test_exact_round_trip(self, plan):
        clone = ExecutionPlan.from_json(plan.to_json())
        assert clone == plan
        # Exactness, not just equality: the serialized form is the
        # planner's tie-breaking key, so a second serialization must be
        # byte-identical.
        assert clone.to_json() == plan.to_json()

    def test_json_is_deterministic(self):
        a = ExecutionPlan(layout=LayoutParams(6, 10))
        b = ExecutionPlan(layout=LayoutParams(6, 10))
        assert a.to_json() == b.to_json()
        assert " " not in a.to_json()

    def test_from_dict_defaults(self):
        # "batch_split" and "verify_integrity" name removed fields:
        # unknown keys are ignored, so older plan JSON still loads.
        plan = ExecutionPlan.from_dict(
            {
                "platform": "gpu",
                "variant": "csr",
                "batch_split": 1,
                "verify_integrity": True,
            }
        )
        assert plan.replication == Replication()
        assert plan.cost_estimate_s is None
