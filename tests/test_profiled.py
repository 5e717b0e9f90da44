"""Tests for the profile-then-bind workflow."""

import pytest

from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl import Runtime
from repro.placement import profile_and_bind
from repro.simulate.machine import Machine
from repro.util.validate import ValidationError


def factory():
    return build_program(Lk23Config(n=512, grid_rows=2, grid_cols=2, iterations=2))


class TestProfileAndBind:
    def test_produces_runnable_plan(self, small_topo):
        result = profile_and_bind(factory, small_topo, seed=1)
        # Fresh program, bound plan, the traced matrix and plan pinned.
        assert result.matrix.total_volume() == 82080.0
        assert result.plan.mapping.pu_of == (
            0, -1, -1, -1, 1, -1, -1, -1, 2, -1, -1, -1, 3, -1, -1, -1
        )
        machine = Machine(small_topo, seed=1)
        run = Runtime(
            result.program,
            machine,
            mapping=result.plan.mapping,
            control_mapping=result.plan.control_mapping,
        ).run()
        assert run.time > 0

    def test_bound_run_not_slower_than_profile(self, paper_topo_small):
        def big_factory():
            return build_program(
                Lk23Config(n=4096, grid_rows=4, grid_cols=8, iterations=3)
            )

        result = profile_and_bind(big_factory, paper_topo_small, seed=2)
        machine = Machine(paper_topo_small, seed=2)
        bound = Runtime(
            result.program,
            machine,
            mapping=result.plan.mapping,
            control_mapping=result.plan.control_mapping,
        ).run()
        # The profiled (unbound) run is the baseline the workflow improves.
        assert bound.time < result.profile_run.time

    def test_nondeterministic_factory_rejected(self, small_topo):
        programs = [
            build_program(Lk23Config(n=512, grid_rows=2, grid_cols=2, iterations=2)),
            build_program(Lk23Config(n=512, grid_rows=1, grid_cols=2, iterations=2)),
        ]

        def bad_factory():
            return programs.pop(0)

        with pytest.raises(ValidationError, match="not deterministic"):
            profile_and_bind(bad_factory, small_topo)
