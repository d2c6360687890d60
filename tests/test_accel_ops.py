"""Unit tests for the scalar datapath kernels in ``repro.accel.ops``."""

from repro.accel import ops


def test_reference_schedule_matches_loop_semantics():
    bounds = ops.serialization_schedule(1.0, [64, 128], 1e9)
    assert bounds[0] == 1.0
    assert bounds[1] == 1.0 + 64 * 8 / 1e9
    assert bounds[2] == bounds[1] + 128 * 8 / 1e9


def test_reference_digest_matches_legacy_helper():
    """The kernel must reproduce net.crc.frame_digest_bytes."""
    from repro.net.crc import frame_digest_bytes

    entries = [(5, 1, 1), (6, 2, 4), (100, 1, 1)]
    signature = []
    for txn_id, command_value, burst in entries:
        for line in range(burst):
            signature.append((txn_id + line) * 131 + command_value)
    assert ops.frame_digest(77, entries) == (
        frame_digest_bytes(77, signature)
    )


def test_bank_service_windows_caps_slots_at_bank_count():
    service = 85e-9 + 1e-9
    completions, slots = ops.bank_service_windows(
        [0.0, 1e-6], [4, 64], 16, 85e-9, 1e-9
    )
    assert completions == [0.0 + service, 1e-6 + service]
    assert slots == [4, 16]
