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


def _reference_signature(entries):
    return [
        (txn_id + line) * 131 + command_value
        for txn_id, command_value, burst in entries
        for line in range(burst)
    ]


def test_digest_bytes_match_legacy_helper_across_frame_shapes():
    """Empty frames, control identity -1 and mixed bursts pack alike."""
    from repro.net.crc import frame_digest_bytes

    shapes = [
        (0, []),
        (-1, []),
        (-1, [(9, 5, 1)]),
        (3, [(40, 1, 1), (41, 2, 3), (44, 1, 16), (60, 4, 1)]),
        (2**40, [(2**33, 2, 16), (7, 1, 3)]),
    ]
    for identity, entries in shapes:
        expected = frame_digest_bytes(identity, _reference_signature(entries))
        assert ops.frame_digest(identity, entries) == expected
        # A repeated length reuses the cached layout; bytes stay equal.
        assert ops.frame_digest(identity, entries) == expected


def test_sealed_burst_frame_crc_detects_a_changed_txn_id():
    from repro.core.llc import Frame
    from repro.opencapi.transactions import MemTransaction

    burst = MemTransaction.read_burst(0x4000, 3)
    line = MemTransaction.write(0x8000, bytes(128))
    frame = Frame(frame_id=11, transactions=[burst, line])
    frame.seal()
    assert frame.crc_ok()
    line.txn_id += 1
    assert not frame.crc_ok()
