"""Platform model: weighted trees and graphs, generation, overlays.

The tree model (§2.1 of the paper): nodes are compute resources with
per-task compute time ``w``, edges are links with per-task transfer time
``c`` (input plus returned output).  See :class:`PlatformTree`.

:class:`PlatformGraph` generalizes this to routed graphs with shared-link
contention (max-min / fair-share allocation; see
:mod:`repro.platform.contention`); trees embed as the validated special
case via :meth:`PlatformGraph.from_tree`.
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".tree": ("PlatformTree", "TreeNode"),
    ".graph": ("PlatformGraph", "Overlay", "build_overlay",
               "generate_platform", "GRAPH_TOPOLOGIES", "CONTENTION_MODES"),
    ".contention": ("LinkContention", "max_min_rates", "fair_share_rates"),
    ".generator": ("TreeGeneratorParams", "PAPER_DEFAULTS", "generate_tree",
                   "generate_ensemble"),
    ".examples": ("figure1_tree", "figure2a_tree", "figure2b_tree"),
    ".mutation": ("Mutation", "MutationSchedule"),
    ".churn": ("ChurnSchedule", "JoinEvent", "LeaveEvent"),
    ".faults": ("CrashEvent", "LinkFailureEvent", "LinkRepairEvent",
                "EdgeFailureEvent", "EdgeRepairEvent", "SwitchCrashEvent",
                "DegradeEvent", "FaultSchedule", "chaos_schedule"),
    ".serialize": ("to_dict", "from_dict", "to_json", "from_json", "to_dot"),
    ".overlay": ("overlay",),
})
