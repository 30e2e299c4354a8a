"""Build submittable plans from CLI-style knobs (``repro submit``).

One entry point, :func:`build_plan`, maps a plan kind plus the familiar
experiment flags (``--patterns``, ``--wmax``, ``--widths``, ...) onto
the kind's plan builder, applying exactly the defaults the standalone
CLI commands use — so ``repro submit table t5`` produces the same plan
fingerprint as a local ``repro table t5`` run.  SI groups for the kinds
that take prebuilt groups (pareto/compare/multisite) are computed
client-side from ``patterns``/``parts``/``seed``, mirroring the CLI's
``_si_groups_for`` path, which keeps submission fingerprints identical
to local runs.
"""

from __future__ import annotations

from repro.experiments.plan import ExperimentPlan
from repro.resilience.validation import ValidationError
from repro.soc.model import Soc

__all__ = ["SUBMITTABLE_KINDS", "build_plan"]

#: Every kind ``repro submit`` accepts, with its per-kind defaults
#: (matching the standalone CLI command of the same name).
SUBMITTABLE_KINDS = (
    "table", "pareto", "volume", "compare", "multisite", "scaling",
    "sensitivity", "stability", "optimize", "evaluate",
)

_DEFAULTS: dict[str, dict] = {
    "table": {"patterns": 10_000, "parts": [1, 2, 4, 8], "seed": 1},
    "pareto": {
        "patterns": 0, "parts": 4, "seed": 1,
        "widths": [8, 16, 24, 32, 40, 48, 56, 64],
    },
    "volume": {"patterns": 5_000, "parts": [1, 2, 4, 8], "seed": 1},
    "compare": {"patterns": 0, "parts": 4, "seed": 1, "sa_steps": 4_000},
    "multisite": {"patterns": 0, "parts": 4, "seed": 1, "channels": 64},
    "scaling": {
        "patterns": 2_000, "parts": 4, "seed": 0,
        "cores": [8, 16, 24, 32], "wmax": 32,
    },
    "sensitivity": {"patterns": 2_000, "parts": 4, "seed": 1, "wmax": 32},
    "stability": {"patterns": 2_000, "seeds": [1, 2, 3], "wmax": 24},
    "optimize": {"patterns": 0, "parts": 4, "seed": 1},
    "evaluate": {"patterns": 0, "parts": 4, "seed": 1},
}

#: Every option :func:`build_plan` reads; anything else is a typo or a
#: knob that no longer exists, and is rejected before a job is queued.
_OPTIONS = frozenset({
    "patterns", "wmax", "widths", "parts", "seed", "seeds", "cores",
    "channels", "sa_steps", "arch",
})


def _option(options: dict, defaults: dict, name: str):
    value = options.get(name)
    if value is None:
        value = defaults.get(name)
    return value


def _require(kind: str, name: str, value):
    if value is None:
        raise ValidationError(
            f"plan kind {kind!r} requires --{name.replace('_', '-')}",
            field=name,
        )
    return value


def _si_groups(soc: Soc, patterns: int, parts: int, seed: int):
    """Client-side SI grouping, byte-compatible with the CLI path."""
    if not patterns:
        return ()
    from repro.compaction.horizontal import build_si_test_groups
    from repro.sitest.generator import generate_random_patterns

    pattern_set = generate_random_patterns(soc, patterns, seed=seed)
    return build_si_test_groups(
        soc, pattern_set, parts=parts, seed=seed
    ).groups


def build_plan(kind: str, soc: Soc | None = None, **options) -> ExperimentPlan:
    """Build the plan for ``kind`` from CLI-style options.

    Args:
        kind: One of :data:`SUBMITTABLE_KINDS`.
        soc: The target SOC (every kind except ``scaling``).
        **options: ``patterns``, ``wmax``, ``widths``, ``parts``,
            ``seed``, ``seeds``, ``cores``, ``channels``, ``sa_steps``,
            ``arch`` (architecture JSON path) — unset ones take the
            kind's CLI defaults.

    Raises:
        ValidationError: Unknown kind or option, missing SOC, or a
            missing required knob (``wmax``/``arch``).
    """
    if kind not in SUBMITTABLE_KINDS:
        raise ValidationError(
            f"unknown plan kind {kind!r}; submit accepts: "
            f"{', '.join(SUBMITTABLE_KINDS)}",
            field="kind",
        )
    unknown = sorted(set(options) - _OPTIONS)
    if unknown:
        raise ValidationError(
            f"unknown submit option(s) {', '.join(unknown)}",
            field=unknown[0],
        )
    defaults = _DEFAULTS[kind]
    if soc is None and kind != "scaling":
        raise ValidationError(
            f"plan kind {kind!r} requires a SOC", field="soc"
        )
    patterns = _option(options, defaults, "patterns")
    parts = _option(options, defaults, "parts")
    seed = _option(options, defaults, "seed")
    wmax = _option(options, defaults, "wmax")

    if kind == "table":
        from repro.experiments.table_runner import (
            DEFAULT_WIDTHS,
            table_plan,
        )

        widths = _option(options, defaults, "widths") or list(
            DEFAULT_WIDTHS
        )
        return table_plan(
            soc,
            patterns,
            widths=tuple(widths),
            group_counts=tuple(parts),
            seed=seed,
        )
    if kind == "pareto":
        from repro.experiments.pareto import pareto_plan

        widths = _option(options, defaults, "widths")
        return pareto_plan(
            soc,
            tuple(widths),
            groups=_si_groups(soc, patterns, parts, seed),
        )
    if kind == "volume":
        from repro.experiments.compaction_study import volume_plan

        return volume_plan(
            soc,
            patterns,
            group_counts=tuple(parts),
            seed=seed,
        )
    if kind == "compare":
        from repro.experiments.compare import compare_plan

        return compare_plan(
            soc,
            _require(kind, "wmax", wmax),
            groups=_si_groups(soc, patterns, parts, seed),
            annealing_steps=_option(options, defaults, "sa_steps"),
        )
    if kind == "multisite":
        from repro.experiments.multisite import multisite_plan

        return multisite_plan(
            soc,
            _option(options, defaults, "channels"),
            groups=_si_groups(soc, patterns, parts, seed),
        )
    if kind == "scaling":
        from repro.experiments.scaling import scaling_plan

        return scaling_plan(
            tuple(_option(options, defaults, "cores")),
            w_max=wmax,
            pattern_count=patterns,
            parts=parts,
            seed=seed,
        )
    if kind == "sensitivity":
        from repro.experiments.sensitivity import sensitivity_plan

        return sensitivity_plan(soc, patterns, wmax, parts=parts, seed=seed)
    if kind == "stability":
        from repro.experiments.stability import stability_plan

        return stability_plan(
            soc,
            patterns,
            wmax,
            seeds=tuple(_option(options, defaults, "seeds")),
        )
    if kind == "optimize":
        from repro.experiments.single import optimize_plan

        return optimize_plan(
            soc,
            _require(kind, "wmax", wmax),
            pattern_count=patterns,
            parts=parts,
            seed=seed,
        )
    # kind == "evaluate"
    from repro.experiments.single import evaluate_plan
    from repro.tam.serialize import load_architecture

    arch = _require(kind, "arch", options.get("arch"))
    return evaluate_plan(
        soc,
        load_architecture(arch),
        pattern_count=patterns,
        parts=parts,
        seed=seed,
    )
