"""Experiment scale configuration (see DESIGN.md §5).

The paper's full scale (53k-100k objects, 100-query workloads, 10^6
Monte-Carlo samples per refinement) takes hours in pure Python, so every
experiment accepts a :class:`Scale`.  The default runs the identical code
paths at a size that finishes in minutes and preserves every qualitative
shape; setting the environment variable ``REPRO_FULL_SCALE=1`` selects the
paper's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.env import env_flag

__all__ = ["Scale", "DEFAULT_SCALE", "FULL_SCALE", "BENCH_SCALE", "active_scale"]


@dataclass(frozen=True)
class Scale:
    """Knobs that trade fidelity for runtime.

    Attributes:
        name: label recorded in experiment output.
        lb_objects / ca_objects / aircraft_objects: dataset sizes.
        queries_per_workload: paper uses 100.
        mc_samples: Monte-Carlo sample count ``n1`` per P_app evaluation
            (paper: 10^6, justified by its Fig. 7).
        io_latency_seconds: simulated cost of one page access, used to
            combine I/O and CPU into the "total cost" panels.
    """

    name: str
    lb_objects: int
    ca_objects: int
    aircraft_objects: int
    queries_per_workload: int
    mc_samples: int
    io_latency_seconds: float = 0.01

    def smaller(self, factor: int) -> "Scale":
        """A proportionally reduced copy (used by the bench harness)."""
        return replace(
            self,
            name=f"{self.name}/{factor}",
            lb_objects=max(200, self.lb_objects // factor),
            ca_objects=max(200, self.ca_objects // factor),
            aircraft_objects=max(200, self.aircraft_objects // factor),
            queries_per_workload=max(4, self.queries_per_workload // factor),
        )


DEFAULT_SCALE = Scale(
    name="default",
    lb_objects=2000,
    ca_objects=2200,
    aircraft_objects=2400,
    queries_per_workload=24,
    mc_samples=8000,
)

FULL_SCALE = Scale(
    name="full",
    lb_objects=53_000,
    ca_objects=62_000,
    aircraft_objects=100_000,
    queries_per_workload=100,
    mc_samples=1_000_000,
)

BENCH_SCALE = Scale(
    name="bench",
    lb_objects=700,
    ca_objects=750,
    aircraft_objects=800,
    queries_per_workload=8,
    mc_samples=4000,
)


def active_scale() -> Scale:
    """The scale selected by the environment (default unless full-scale).

    Resolved through :mod:`repro.env`: ``REPRO_FULL_SCALE=1`` selects
    :data:`FULL_SCALE`.
    """
    return FULL_SCALE if env_flag("REPRO_FULL_SCALE") else DEFAULT_SCALE
