"""Unit tests for the bench matrix spec: expansion, dedup, naming."""

import pytest

from repro.bench.matrix import (
    BenchSpecError,
    CONFIG_SPECS,
    Cell,
    MatrixSpec,
    SPEC_TO_CONFIG,
)


class TestCell:
    def test_name_encodes_every_axis_but_scale(self):
        cell = Cell("164.gzip", "tl", 0.5, "O2")
        assert cell.name == "164.gzip/tl"
        assert "0.5" not in cell.name and "O2" not in cell.name

    def test_analysis_config_mapping(self):
        for spec, config in SPEC_TO_CONFIG.items():
            cell = Cell("w", spec, 1.0)
            assert cell.analysis_config == config

    def test_identity_fields(self):
        cell = Cell("456.hmmer", "opt_i", 0.25)
        assert cell.identity() == {
            "cell": "456.hmmer/opt_i",
            "workload": "456.hmmer",
            "config": "opt_i",
            "scale": 0.25,
            "level": "O0+IM",
        }


class TestExpansion:
    def test_full_cross_product(self):
        spec = MatrixSpec(
            workloads=("a", "b", "c"), configs=("tl", "full", "msan")
        )
        cells = spec.expand()
        assert len(cells) == 3 * 3
        assert len({cell.name for cell in cells}) == len(cells)

    def test_workload_major_deterministic_order(self):
        spec = MatrixSpec(workloads=("a", "b"), configs=("tl", "full"))
        names = [cell.name for cell in spec.expand()]
        assert names == [c.name for c in spec.expand()]
        assert all(n.startswith("a/") for n in names[: len(names) // 2])

    def test_duplicate_axis_values_collapse(self):
        spec = MatrixSpec(workloads=("a", "a", "b"), configs=("tl", "tl"))
        cells = spec.expand()
        assert [cell.name for cell in cells] == ["a/tl", "b/tl"]

    def test_default_axes_cover_acceptance_matrix(self):
        # The paper's four Usher configs.
        spec = MatrixSpec(workloads=("w",))
        assert spec.configs == ("tl", "tl_at", "opt_i", "full")
        assert len(spec.expand()) == 4


class TestValidation:
    def test_unknown_config_rejected(self):
        with pytest.raises(BenchSpecError, match="unknown config"):
            MatrixSpec(workloads=("w",), configs=("tl", "bogus"))

    # The matrix has two axes: the removed analysis knobs are not axes,
    # and naming one fails at construction instead of being ignored.
    def test_unknown_tier_rejected(self):
        with pytest.raises(TypeError, match="tiers"):
            MatrixSpec(workloads=("w",), tiers=("warp",))

    def test_unknown_storage_rejected(self):
        with pytest.raises(TypeError, match="storages"):
            MatrixSpec(workloads=("w",), storages=("sparse",))

    def test_unknown_schedule_rejected(self):
        with pytest.raises(TypeError, match="schedules"):
            MatrixSpec(workloads=("w",), schedules=("lifo",))

    def test_empty_workloads_rejected(self):
        with pytest.raises(BenchSpecError, match="empty workloads"):
            MatrixSpec(workloads=())

    def test_bad_jobs_rejected(self):
        with pytest.raises(TypeError, match="jobs"):
            MatrixSpec(workloads=("w",), jobs=(0,))

    def test_bad_scale_rejected(self):
        with pytest.raises(BenchSpecError, match="scale"):
            MatrixSpec(workloads=("w",), scale=0)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(BenchSpecError, match="finite"):
            MatrixSpec(workloads=("w",), scale=scale)

    def test_unknown_level_rejected(self):
        with pytest.raises(BenchSpecError, match="unknown level"):
            MatrixSpec(workloads=("w",), level="O3")

    def test_level_reaches_every_cell(self):
        spec = MatrixSpec(workloads=("a", "b"), configs=("tl",), level="O1")
        assert {cell.level for cell in spec.expand()} == {"O1"}

    def test_every_config_spec_is_accepted(self):
        spec = MatrixSpec(workloads=("w",), configs=CONFIG_SPECS)
        assert len(spec.expand()) == len(CONFIG_SPECS)


class TestFromArgs:
    def test_parses_comma_lists(self):
        spec = MatrixSpec.from_args(
            workloads=["a", "b"],
            configs="tl, full",
            scale=0.25,
        )
        assert spec.workloads == ("a", "b")
        assert spec.configs == ("tl", "full")
        assert spec.scale == 0.25

    def test_rejects_non_integer_jobs(self):
        with pytest.raises(TypeError, match="jobs"):
            MatrixSpec.from_args(workloads=["a"], jobs="two")

    def test_rejects_empty_axis_string(self):
        with pytest.raises(BenchSpecError, match="empty configs"):
            MatrixSpec.from_args(workloads=["a"], configs=" , ")
