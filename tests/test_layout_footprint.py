"""Tests for the memory-footprint accounting (paper §4.2 / Fig. 6)."""

from repro.extensions.packed_nodes import GPUPackedIndependentKernel
from repro.layout.csr import CSRForest
from repro.layout.footprint import (
    csr_bytes,
    csr_device_arrays,
    footprint_ratio,
    hierarchical_bytes,
)
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


class TestByteWidths:
    def test_default_node_bytes(self, small_trees):
        arrays = csr_device_arrays(CSRForest.from_trees(small_trees))
        assert arrays["feature_id"].itemsize + arrays["value"].itemsize == 8

    def test_packed_matches_paper_48_bits(self, small_trees):
        """Paper §3.2: 48 bits per node's attributes (16-bit feature id
        plus 32-bit value, the packed-node kernels' address model)."""
        value = csr_device_arrays(CSRForest.from_trees(small_trees))["value"]
        assert (GPUPackedIndependentKernel.FEATURE_BYTES + value.itemsize) * 8 == 48


class TestFootprint:
    def test_csr_bytes_formula(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        expected = (
            csr.total_nodes * 12
            + csr.total_children_entries * 4
            + (csr.n_trees + 1) * 16
        )
        assert csr_bytes(csr) == expected

    def test_hier_bytes_positive_and_consistent(self, small_trees):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        b = hierarchical_bytes(h)
        assert b > h.total_slots * 8  # node arrays plus metadata

    def test_fig6_shape_small_sd_near_csr(self, small_trees):
        """Fig. 6: SD=4 close to CSR; SD=8 well above; monotone in SD."""
        csr = CSRForest.from_trees(small_trees)
        ratios = {
            sd: footprint_ratio(
                HierarchicalForest.from_trees(small_trees, LayoutParams(sd)), csr
            )
            for sd in (4, 6, 8)
        }
        assert ratios[4] < 1.5
        assert ratios[4] <= ratios[6] <= ratios[8]
        assert ratios[8] > ratios[4]

    def test_sd1_pays_metadata_not_padding(self, small_trees):
        """SD=1 stores zero padding but one offset/connection record per
        node, so its footprint exceeds CSR through metadata instead."""
        csr = CSRForest.from_trees(small_trees)
        h1 = HierarchicalForest.from_trees(small_trees, LayoutParams(1))
        assert h1.padding_fraction == 0.0
        assert footprint_ratio(h1, csr) > 1.0

    def test_packed_widths_change_totals(self, small_trees):
        packed = CSRForest.from_trees(small_trees, codec="packed")
        assert csr_bytes(packed) < csr_bytes(CSRForest.from_trees(small_trees))
