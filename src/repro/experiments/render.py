"""One text renderer per plan kind, shared by the CLI and the service.

The CLI commands and the :mod:`repro.service` job server must print the
*same* bytes for the same report — the service equivalence suite pins
that down — so both render through the kind's
:meth:`~repro.experiments.plan.PlanKind.render` instead of each keeping
its own formatting call.  ``render_report`` covers the deterministic body
of each command's output; presentation extras that are deliberately not
part of the report (the table command's wall-clock ``(elapsed: ...)``
line, ``--verbose`` progress) stay CLI-side.
"""

from __future__ import annotations

from repro.experiments.plan import plan_kind


def render_report(kind: str, report) -> str:
    """Render ``report`` (a plan kind's assembled object) to text.

    Raises:
        ValueError: On an unknown plan kind.
    """
    return plan_kind(kind).render(report)
