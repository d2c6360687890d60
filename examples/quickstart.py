#!/usr/bin/env python3
"""Quickstart: attach disaggregated memory and touch it.

Builds the paper's three-node prototype (two FPGA-equipped AC922s plus
a client node), asks the software-defined control plane for 4 MiB of a
neighbour's memory, and then loads/stores through the full simulated
datapath: bus → OpenCAPI M1 → RMMU → routing → LLC → 100 Gb/s wire →
LLC → OpenCAPI C1 → donor DRAM.

Run:  python examples/quickstart.py
"""

from repro.mem import CACHELINE_BYTES, MIB
from repro.obs import RunSummary, event_logging
from repro.osmodel import PagePolicy
from repro.testbed import Testbed


def walkthrough() -> None:
    print("Building the 3-node ThymesisFlow prototype...")
    testbed = Testbed()

    print("Attaching 4 MiB of node1's memory to node0 "
          "(control plane: plan path -> steal -> program RMMU -> hotplug)")
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    plan = attachment.plan
    window = testbed.remote_window_range(attachment)

    summary = RunSummary("attachment")
    summary.section("control plane")
    summary.row("network id", attachment.flow.network_id)
    summary.row("sections", str(plan.section_indices))
    summary.row(
        "CPU-less NUMA node",
        f"{plan.numa_node_id} (SLIT distance {plan.numa_distance})",
    )
    summary.row(
        "window on node0", f"[{window.start:#x}, {window.end:#x})"
    )
    print(summary.render())

    print("\nStoring a cacheline on node0; reading it back...")
    payload = bytes(range(128))
    testbed.node0.run_store(window.start, payload)
    assert testbed.node0.run_load(window.start) == payload
    for _ in range(16):
        testbed.node0.run_load(window.start)
    rtt = testbed.node0.device.compute.rtt
    donor = testbed.node1.dram.read_now(attachment.grant.effective_base, 16)

    datapath = RunSummary("datapath")
    datapath.section("remote access")
    datapath.row("store + load back", "roundtrip OK")
    datapath.row(
        "bytes physically on node1",
        f"DRAM[{attachment.grant.effective_base:#x}] = {donor.hex()}",
    )
    datapath.row(
        "unloaded RTT",
        f"{rtt.mean * 1e9:.0f} ns "
        "(paper prototype: ~950 ns datapath + donor DRAM)",
    )
    print(datapath.render())

    print("\nThe kernel can also allocate from the new NUMA node:")
    mapping = testbed.node0.kernel.mmap(
        1 * MIB, PagePolicy.BIND, nodes=[plan.numa_node_id]
    )
    print(f"  mmap of 1 MiB -> {len(mapping.pages)} pages, "
          f"all on node {mapping.pages[0].node_id}")
    address = mapping.address_for_offset(0)
    testbed.node0.run_store(address, b"hello disaggregation!".ljust(
        CACHELINE_BYTES, b"\x00"))
    data = testbed.node0.run_load(address)
    print(f"  through the page mapping: {data.rstrip(bytes(1)).decode()!r}")

    testbed.node0.kernel.munmap(mapping)
    print("\nDetaching (offline sections, release donor pin, free path)...")
    testbed.detach(attachment)


def main() -> None:
    with event_logging() as journal:
        walkthrough()
    print("Done. Control-plane events in the run's journal:")
    for event in journal:
        if event.kind.startswith("control."):
            print(f"  - {event.kind} (attachment "
                  f"#{event.fields['attachment']})")


if __name__ == "__main__":
    main()
