"""Rack-scale topology: N nodes behind one circuit switch — paper §VII.

"With the currently available technologies, only rack-scale
disaggregation seems a feasible solution (i.e. at most one switching
layer) … At the scale of one or a few racks, a circuit switched optical
network would be attractive."

This testbed realizes that projection: every node's two network
channels terminate on a circuit switch; the control plane plans paths
*through* the switch and programs the circuits (via
:class:`~repro.control.switching.SwitchDriver`) as part of each attach.
Remote latency gains one switch crossing relative to the back-to-back
prototype.
"""

from __future__ import annotations

from typing import Optional

from ..control.orchestrator import Attachment
from ..core.llc import LlcConfig
from ..net.link import LinkConfig
from ..net.switch import CircuitSwitch
from .base import TestbedBase
from .node import NodeSpec

__all__ = ["RackTestbed"]


class RackTestbed(TestbedBase):
    """N FPGA-equipped nodes, one optical circuit switch, one plane."""

    SWITCH_NAME = "sw0"

    def __init__(
        self,
        nodes: int = 4,
        channels_per_node: int = 2,
        spec: Optional[NodeSpec] = None,
        llc_config: Optional[LlcConfig] = None,
        link_config: Optional[LinkConfig] = None,
        switch_crossing_s: float = 100e-9,
    ):
        self._build_switched_rack(
            nodes, channels_per_node, spec, llc_config, link_config,
            make_switch=lambda sim, ports: CircuitSwitch(
                sim,
                ports=ports,
                crossing_latency_s=switch_crossing_s,
                name=self.SWITCH_NAME,
            ),
        )

    # -- topology hooks -----------------------------------------------------------
    def _settle_after_attach(self, attachment: Attachment) -> None:
        # Link bring-up: wait out the optical switch's reconfiguration
        # window (during which the new circuits are dark) before the
        # caller starts issuing transactions.
        self.sim.run(
            until=self.sim.now + self.switch.reconfiguration_s * 1.5
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RackTestbed(nodes={len(self.nodes)}, "
            f"circuits={self.driver.circuits()})"
        )
