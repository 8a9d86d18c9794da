"""Dependency-free SVG rendering of the paper's figures."""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".svg": ("LineChart", "StepChart", "nice_ticks", "PALETTE"),
    ".figures": ("fig3_svg", "fig4_svg", "fig5_svg", "fig6_svg", "fig7_svg",
                 "save_all"),
})
