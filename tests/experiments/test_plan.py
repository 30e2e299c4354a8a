"""Unit tests of the declarative plan layer (repro.experiments.plan)."""

from __future__ import annotations

import pytest

from repro.experiments.plan import (
    UNCACHED,
    CellRef,
    CellSpec,
    ExperimentPlan,
    build_plan,
    namespaced,
    params_fingerprint,
    plan_cell_key,
    plan_from_dict,
    plan_kind,
    plan_to_dict,
    project,
    register_projection,
    registered_plans,
    subset,
    validate_cells,
)
from repro.resilience.validation import ValidationError
from repro.sitest.generator import GeneratorConfig


def _cell(cell_id, deps=(), **kwargs):
    args = kwargs.pop("args", tuple(CellRef(dep) for dep in deps))
    return CellSpec(
        cell_id=cell_id, kind="test", fn=_noop, args=args, **kwargs
    )


def _noop(*_args):
    return None


class TestParamsFingerprint:
    def test_scalars_and_containers_pass_through(self):
        assert params_fingerprint({"a": 1, "b": (2, 3)}) == {
            "a": 1, "b": [2, 3]
        }

    def test_mapping_order_is_canonical(self):
        assert params_fingerprint({"b": 1, "a": 2}) == params_fingerprint(
            {"a": 2, "b": 1}
        )

    def test_set_order_is_canonical(self):
        assert params_fingerprint(frozenset({3, 1, 2})) == (
            params_fingerprint({2, 3, 1})
        )

    def test_soc_hashes_by_content_not_name(self, t5):
        from dataclasses import replace

        renamed = replace(t5, name="elsewhere")
        assert params_fingerprint(t5) == params_fingerprint(renamed)

    def test_dataclass_config_by_fields(self):
        from dataclasses import replace

        base = GeneratorConfig()
        assert params_fingerprint(base) == params_fingerprint(
            GeneratorConfig()
        )
        assert params_fingerprint(base) != params_fingerprint(
            replace(base, bus_probability=0.0)
        )

    def test_unfingerprintable_value_raises(self):
        with pytest.raises(TypeError, match="no canonical fingerprint"):
            params_fingerprint(object())


class TestExperimentPlanFingerprint:
    def test_stable_across_param_ordering(self, t5):
        first = ExperimentPlan("pareto", {"soc": t5, "widths": (8, 16)})
        second = ExperimentPlan("pareto", {"widths": (8, 16), "soc": t5})
        assert first.fingerprint() == second.fingerprint()

    def test_differs_on_params_and_kind(self, t5):
        base = ExperimentPlan("pareto", {"soc": t5, "widths": (8, 16)})
        other_params = ExperimentPlan("pareto", {"soc": t5, "widths": (8,)})
        other_kind = ExperimentPlan("table", {"soc": t5, "widths": (8, 16)})
        assert base.fingerprint() != other_params.fingerprint()
        assert base.fingerprint() != other_kind.fingerprint()

    def test_plan_cell_key_scopes_by_plan_and_cell(self):
        assert plan_cell_key("plan-a", "x") != plan_cell_key("plan-b", "x")
        assert plan_cell_key("plan-a", "x") != plan_cell_key("plan-a", "y")


class TestCellSpec:
    def test_cache_key_and_key_fn_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            _cell("a", cache_key="optimize-0", key_fn=lambda values: "k")

    def test_key_deps_require_key_fn(self):
        with pytest.raises(ValueError, match="key_deps without key_fn"):
            _cell("a", key_deps=("b",))

    def test_deps_merge_refs_extra_and_key_deps(self):
        cell = CellSpec(
            cell_id="c",
            kind="test",
            fn=_noop,
            args=(CellRef("a"), (CellRef("b"), CellRef("a"))),
            key_fn=lambda values: "k",
            key_deps=("d",),
            extra_deps=("e",),
        )
        assert cell.deps == ("a", "b", "e", "d")

    def test_signature_is_json_able_and_names_the_fn(self):
        import json

        signature = _cell("a").signature()
        json.dumps(signature)
        assert signature["fn"].endswith("test_plan._noop")


class TestValidateCells:
    def test_accepts_a_dag(self):
        validate_cells((_cell("a"), _cell("b", deps=("a",))))

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate cell id"):
            validate_cells((_cell("a"), _cell("a")))

    def test_dangling_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown cell"):
            validate_cells((_cell("a", deps=("ghost",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            validate_cells(
                (_cell("a", deps=("b",)), _cell("b", deps=("a",)))
            )


class TestNamespacedSubset:
    def test_ids_refs_and_key_deps_are_remapped(self):
        cells = namespaced(
            "seed/1",
            (
                _cell("a"),
                _cell(
                    "b",
                    args=(CellRef("a", project=None),),
                    key_fn=lambda values: "k",
                    key_deps=("a",),
                ),
            ),
        )
        assert [cell.cell_id for cell in cells] == ["seed/1/a", "seed/1/b"]
        assert cells[1].deps == ("seed/1/a",)

    def test_subset_inverts_namespacing(self):
        results = {"seed/1/a": 1, "seed/1/b": 2, "seed/2/a": 3}
        assert subset("seed/1", results) == {"a": 1, "b": 2}


class TestProjections:
    def test_unknown_projection_rejected(self):
        with pytest.raises(ValueError, match="unknown projection"):
            project(CellRef("a", project="nope"), {"x": 1})

    def test_reregistering_a_name_with_another_fn_rejected(self):
        register_projection("test_plan.only", _noop)
        register_projection("test_plan.only", _noop)  # same fn: fine
        with pytest.raises(ValueError, match="already registered"):
            register_projection("test_plan.only", lambda value: value)


class TestRegistry:
    def test_all_builtin_kinds_registered(self):
        assert registered_plans() == (
            "compare", "evaluate", "multisite", "optimize", "pareto",
            "scaling", "sensitivity", "stability", "table", "volume",
        )

    def test_unknown_kind_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown plan kind"):
            plan_kind("bogus")


class TestBuildPlan:
    def test_unset_options_take_the_declared_defaults(self, t5):
        from repro.experiments.table_runner import table_plan

        assert build_plan("table", t5, patterns=300).fingerprint() == (
            table_plan(t5, 300).fingerprint()
        )

    @pytest.mark.parametrize(
        "kind,soc,options,match",
        [
            ("bogus", True, {}, "unknown plan kind"),
            ("stability", True, {"seed": 3}, "unknown submit option"),
            ("pareto", False, {}, "requires a SOC"),
            ("compare", True, {}, "requires --wmax"),
            ("pareto", True, {"parts": [2]}, "takes one int"),
            ("table", True, {"widths": 16}, "takes a list of int"),
            ("volume", True, {"parts": []}, "takes a list of int"),
        ],
        ids=["kind", "option", "soc", "required", "one", "many", "empty"],
    )
    def test_bad_options_are_validation_errors(
        self, t5, kind, soc, options, match
    ):
        with pytest.raises(ValidationError, match=match):
            build_plan(kind, t5 if soc else None, **options)


class TestSerialization:
    def test_round_trip_preserves_fingerprint(self, t5):
        from repro.compaction.horizontal import build_si_test_groups
        from repro.sitest.generator import generate_random_patterns

        patterns = generate_random_patterns(t5, 120, seed=1)
        groups = build_si_test_groups(t5, patterns, parts=2, seed=1).groups
        plan = ExperimentPlan(
            "pareto",
            {
                "soc": t5,
                "widths": (8, 16),
                "groups": tuple(groups),
                "capture_cycles": 1,
            },
        )
        data = plan_to_dict(plan)
        restored = plan_from_dict(data)
        assert restored.fingerprint() == plan.fingerprint()
        assert restored.expand()[0].cache_key == plan.expand()[0].cache_key

    def test_tampered_payload_rejected(self, t5):
        data = plan_to_dict(
            ExperimentPlan("pareto", {"soc": t5, "widths": (8,)})
        )
        data["params"]["widths"] = [16]
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            plan_from_dict(data)

    def test_unexpected_format_rejected(self):
        with pytest.raises(ValueError, match="unexpected plan format"):
            plan_from_dict({"format": "something-else"})

    def test_raw_patterns_are_not_serializable(self, t5):
        from repro.sitest.generator import generate_random_patterns

        plan = ExperimentPlan(
            "volume",
            {
                "soc": t5,
                "patterns": list(generate_random_patterns(t5, 5, seed=0)),
                "group_counts": (1,),
            },
        )
        with pytest.raises(TypeError, match="not serializable"):
            plan_to_dict(plan)


class TestUncachedSentinel:
    def test_raw_volume_cells_run_uncached(self, t5):
        from repro.sitest.generator import generate_random_patterns

        plan = ExperimentPlan(
            "volume",
            {
                "soc": t5,
                "patterns": list(generate_random_patterns(t5, 50, seed=0)),
                "group_counts": (1, 2),
                "seed": 0,
            },
        )
        assert all(cell.cache_key == UNCACHED for cell in plan.expand())


class TestRetiredParamsFingerprints:
    """Plans of the kinds that once carried an engine selector keep the
    fingerprints they had with it, so checkpoints, service dedup keys and
    default plan-scoped cell keys written before its removal stay valid.
    The literals were computed with the selector still in place."""

    _ARCH = {"rails": [{"cores": [1, 2], "width": 3},
                       {"cores": [3, 4, 5], "width": 5}]}

    def test_table_plan(self, t5):
        from repro.experiments.table_runner import table_plan

        plan = table_plan(t5, 300, widths=(8, 16), group_counts=(1, 2), seed=3)
        assert plan.fingerprint() == (
            "plan-3f6e54dcab1796b924ad360cc7e1fee6"
            "661754e75d1ca7ea9b129ac8c4bd7ba2"
        )

    def test_optimize_plan(self, d695):
        from repro.experiments.single import optimize_plan

        plan = optimize_plan(d695, 16, pattern_count=300, parts=2, seed=3)
        assert plan.fingerprint() == (
            "plan-67628076c96ed1c4c1a9bb66306ca542"
            "6b7a4af37f37175da40f281c50b93ef1"
        )

    def test_evaluate_plan(self, t5):
        from repro.experiments.single import evaluate_plan

        plan = evaluate_plan(
            t5, self._ARCH, pattern_count=300, parts=2, seed=3
        )
        assert plan.fingerprint() == (
            "plan-d8d170d4678f8f52edf3868cf2c82783"
            "7a8c3e8ac5f97ee352cf9ee401d427ad"
        )

    def test_volume_plan(self, d695):
        from repro.experiments.compaction_study import volume_plan

        plan = volume_plan(d695, 300, group_counts=(1, 2), seed=3)
        assert plan.fingerprint() == (
            "plan-97c40d800352ea977db25009dba9702b"
            "b28029cf5988623874695aa248a8e5b4"
        )
