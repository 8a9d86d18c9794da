"""Experiment harness: one module per table/figure of the paper's §4.

Every module exposes ``run(scale) -> <Result>`` and
``format_result(result) -> str`` printing the same rows the paper reports.
The CLI (``python -m repro <experiment>``) wires them together.
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".common": ("ExperimentScale", "ConfigOutcome", "TreeCase", "run_case",
                "sweep"),
    ".fig3": ("fig3",),
    ".fig4": ("fig4",),
    ".fig5": ("fig5",),
    ".fig6": ("fig6",),
    ".fig7": ("fig7",),
    ".table1": ("table1",),
    ".table2": ("table2",),
    ".ablation": ("ablation",),
    ".export": ("export",),
    ".cli": ("EXPERIMENTS", "main"),
})
