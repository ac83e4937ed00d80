"""Wattch-like activity-based power model.

The paper compares energy-delay² of the most aggressive helper-cluster
configuration against the monolithic baseline using an in-house Wattch-style
power simulator extended with the helper cluster's 8-bit datapath, clock
network and width predictors (§3.1).  This subpackage provides the
equivalent, generalised to arbitrary cluster topologies: per-cluster
per-access energies derived from each cluster's spec (datapath width,
scheduler resources, FU mix), clock/static power per cluster cycle, and the
energy / energy-delay / energy-delay² accounting behind the ``repro.cli
energy`` subcommand and the ED² columns of every sweep table.
"""

from repro.power.wattch import (
    ActivityCounts,
    ClusterActivity,
    ClusterCoefficients,
    PowerBreakdown,
    PowerConfig,
    PowerModel,
)
from repro.power.energy import (
    EnergyReport,
    compare_ed2,
    energy_delay_squared,
    report_from_result,
)

__all__ = [
    "PowerModel",
    "PowerConfig",
    "ActivityCounts",
    "ClusterActivity",
    "ClusterCoefficients",
    "PowerBreakdown",
    "EnergyReport",
    "energy_delay_squared",
    "compare_ed2",
    "report_from_result",
]
