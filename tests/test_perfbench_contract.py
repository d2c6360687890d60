"""The names the benchmark harness wraps must exist in the program.

``perfbench`` times the program from outside by patching the functions
and classes listed in ``perfbench.ledger.LAYERS`` and reads call counts
under the keys in ``perfbench.layers``. A rename or deletion under
``src/`` would otherwise surface only as a failed traced benchmark run.
"""

import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers  # noqa: E402
from perfbench.ledger import LAYERS, Ledger, _resolve  # noqa: E402

ENTRIES = [
    (owner, name) for _layer, owner, names in LAYERS for name in names
]

#: ``module:Qual.name`` keys ``perfbench.layers`` reads from the ledger.
KEYS = [
    value for attr, value in vars(layers).items()
    if attr.isupper() and isinstance(value, str) and ":" in value
]


def _assert_defined(owner, name):
    head, _, method = name.partition(".")
    target = getattr(owner, head)
    if method:
        # The ledger patches ``vars(cls)[method]``: the method must be
        # defined in the class body itself, not inherited.
        assert method in vars(target), name
    else:
        assert inspect.isclass(target) or callable(target), name


@pytest.mark.parametrize("owner,name", ENTRIES,
                         ids=[f"{o}:{n}" for o, n in ENTRIES])
def test_layer_entry_resolves(owner, name):
    _assert_defined(_resolve(owner), name)


@pytest.mark.parametrize("key", KEYS)
def test_count_key_resolves(key):
    owner, _, name = key.partition(":")
    _assert_defined(_resolve(owner), name)


def test_accel_ops_name_recorded_in_provenance():
    from repro.accel import ops

    assert isinstance(ops.NAME, str) and ops.NAME


def test_ledger_installs_and_restores():
    from repro.accel import ops

    original = ops.frame_digest
    with Ledger():
        assert ops.frame_digest is not original
    assert ops.frame_digest is original
