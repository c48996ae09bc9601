import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterl2norm.cli import main
from iterl2norm.errors import UsageError
from iterl2norm.fpformat import CHUNK_SIZE
from iterl2norm.latency import (
    D_MAX,
    CycleReport,
    StageCosts,
    estimate_cycles,
)


class TestGeometry:
    def test_defaults(self):
        # 8 banks x 8 lanes per chunk, 16 rows deep
        assert CHUNK_SIZE == 8 * 8 == 64
        assert D_MAX == 16 * CHUNK_SIZE == 1024


class TestEstimateCycles:
    def test_published_endpoints(self):
        assert estimate_cycles(64, 5).total == 116
        assert estimate_cycles(1024, 5).total == 227

    def test_ceiling_plateau(self):
        assert estimate_cycles(65, 5).total == estimate_cycles(128, 5).total

    def test_chunk_boundary_step(self):
        assert estimate_cycles(513, 5).total > estimate_cycles(512, 5).total

    def test_monotone_and_piecewise_constant(self):
        prev = None
        for d in range(1, 1025):
            t = estimate_cycles(d, 5).total
            if prev is not None:
                assert t >= prev
                if -(-d // 64) == -(-(d - 1) // 64):
                    assert t == prev  # same chunk count, same total
            prev = t

    def test_lower_bound_at_one_chunk(self):
        base = estimate_cycles(64, 5).total
        for d in (1, 17, 100, 500, 1024):
            assert estimate_cycles(d, 5).total >= base

    @given(d=st.integers(1, 1024), n1=st.integers(0, 20), n2=st.integers(0, 20))
    @settings(max_examples=100)
    def test_linear_in_steps(self, d, n1, n2):
        c = StageCosts()
        t1 = estimate_cycles(d, n1).total
        t2 = estimate_cycles(d, n2).total
        assert t2 - t1 == (n2 - n1) * c.iteration_per_step

    def test_per_phase_sums_to_total(self):
        rep = estimate_cycles(700, 3)
        assert isinstance(rep, CycleReport)
        assert sum(rep.per_phase.values()) == rep.total
        assert set(rep.per_phase) == {
            "control", "mean_sum", "mean_mul", "mean_shift", "inner_product",
            "iteration", "output_scale", "output_affine"}

    def test_range_errors(self):
        with pytest.raises(UsageError):
            estimate_cycles(0, 5)
        with pytest.raises(UsageError):
            estimate_cycles(1025, 5)
        with pytest.raises(UsageError):
            estimate_cycles(64, -1)

    def test_iteration_is_mul_add_latency_budget(self):
        # 4 two-cycle multiplies + subtract + accumulate per step
        assert StageCosts().iteration_per_step == 4 * 2 + 2 * 2 == 12


class TestStageCostConfig:
    def test_partial_override(self):
        c = replace(StageCosts(), iteration_per_step=10)
        assert c.iteration_per_step == 10
        assert c.control_fixed == StageCosts().control_fixed

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # the one reader of a config file, the CLI's --config, checks the keys
        path = tmp_path / "costs.json"
        path.write_text(json.dumps({"stage_costs": {"warp_drive": 1}}))
        assert main(["latency", "--dims", "64", "--config", str(path)]) == 2
        assert "unknown stage cost fields: ['warp_drive']" in capsys.readouterr().err

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            replace(StageCosts(), mean_sum_fixed=-1)

    def test_load_from_json(self, tmp_path, capsys):
        # the one reader of a config file is the CLI's --config
        path = tmp_path / "costs.json"
        overrides = {"iteration_per_step": 20}
        path.write_text(json.dumps({"stage_costs": overrides}))
        c = replace(StageCosts(), **overrides)
        assert c.iteration_per_step == 20
        assert estimate_cycles(64, 5, costs=c).total == 116 + 5 * 8
        assert main(["latency", "--dims", "64", "--config", str(path)]) == 0
        assert "\n64,156," in capsys.readouterr().out
