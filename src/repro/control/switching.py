"""Switch drivers: the control plane's hook into switching layers.

§IV-C lists "configuration of ThymesisFlow endpoints and possible
intermediate switching layers" among the plane's responsibilities. A
:class:`SwitchDriver` translates planned graph paths into bidirectional
circuits on a switching fabric, with reference counting so multiple
flows may share an identical circuit and the circuit is torn down when
the last flow detaches.

One driver programs both rack fabrics of §VII: the optical
:class:`~repro.net.switch.CircuitSwitch` and the packet fabric's session
table (:class:`~repro.testbed.packet_rack.PacketFabricDriver`). A fabric
only has to offer ``connect(ingress, egress)``, ``disconnect(ingress)``
and a ``conflict_error`` class, raised when a port is already in use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .graph import GraphError

__all__ = ["SwitchDriver", "extract_switch_hops"]

#: Invoked with (port_a, port_b) when a circuit is freshly established
#: or fully torn down (not on refcount changes).
CircuitHook = Callable[[int, int], None]


def extract_switch_hops(
    node_path: Sequence[str], switch_name: str
) -> List[Tuple[int, int]]:
    """(ingress port, egress port) pairs a path takes through a switch.

    Graph node names for switch ports are ``"<switch>/p<N>"``; a path
    crosses the switch wherever two consecutive nodes belong to it.
    """
    prefix = f"{switch_name}/p"
    hops: List[Tuple[int, int]] = []
    for left, right in zip(node_path, node_path[1:]):
        if left.startswith(prefix) and right.startswith(prefix):
            hops.append(
                (int(left[len(prefix):]), int(right[len(prefix):]))
            )
    return hops


class SwitchDriver:
    """Reference-counted bidirectional circuits on one switch fabric."""

    def __init__(
        self,
        name: str,
        switch: Any,
        on_circuit_up: Optional[CircuitHook] = None,
        on_circuit_down: Optional[CircuitHook] = None,
    ):
        self.name = name
        self.switch = switch
        self.on_circuit_up = on_circuit_up
        self.on_circuit_down = on_circuit_down
        self._refs: Dict[Tuple[int, int], int] = {}

    def _canonical(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def connect(self, port_a: int, port_b: int) -> None:
        """Establish (or share) the bidirectional circuit a<->b."""
        key = self._canonical(port_a, port_b)
        if self._refs.get(key, 0) > 0:
            self._refs[key] += 1
            return
        # Exclusivity: a switch port carries exactly one circuit.
        for (existing_a, existing_b), refs in self._refs.items():
            if refs > 0 and {existing_a, existing_b} & {port_a, port_b}:
                raise self.switch.conflict_error(
                    f"{self.name}: port conflict — ({port_a},{port_b}) "
                    f"vs existing ({existing_a},{existing_b})"
                )
        self.switch.connect(port_a, port_b)
        self.switch.connect(port_b, port_a)
        self._refs[key] = 1
        if self.on_circuit_up is not None:
            self.on_circuit_up(port_a, port_b)

    def disconnect(self, port_a: int, port_b: int) -> None:
        key = self._canonical(port_a, port_b)
        refs = self._refs.get(key, 0)
        if refs <= 0:
            raise GraphError(
                f"{self.name}: circuit ({port_a},{port_b}) not connected"
            )
        if refs == 1:
            self.switch.disconnect(port_a)
            self.switch.disconnect(port_b)
            del self._refs[key]
            if self.on_circuit_down is not None:
                self.on_circuit_down(port_a, port_b)
        else:
            self._refs[key] = refs - 1

    def circuits(self) -> List[Tuple[int, int]]:
        return sorted(key for key, refs in self._refs.items() if refs > 0)
