"""Executable specification of per-operand transfer accounting.

``transfer_for_key`` answers, for one operand key, the question
:func:`repro.vectorize.communication.transfers_for` answers for the whole
assignment: which scalar<->vector transfer (if any) the assignment
implies.  ``tests/test_fastpath.py`` prices reference repartition probes
with it, and ``tests/test_communication_alignment.py`` checks it against
the full computation.
"""

from __future__ import annotations

from repro.ir.types import ScalarType
from repro.vectorize.communication import Dataflow, Side, Transfer


def transfer_for_key(
    dataflow: Dataflow,
    assignment: dict[int, Side],
    key: object,
) -> Transfer | None:
    """The transfer (if any) implied by ``assignment`` for one operand key."""
    if isinstance(key, tuple) and key and key[0] == "carried":
        for entry, consumer_ids in dataflow.carried_consumers.items():
            if entry.name == key[1]:
                if entry in dataflow.constant_carried:
                    return None
                if any(assignment[c] is Side.VECTOR for c in consumer_ids):
                    dtype = entry.type
                    assert isinstance(dtype, ScalarType)
                    return Transfer(key=key, dtype=dtype, to_vector=True)
                return None
        return None
    assert isinstance(key, int)
    consumer_ids = dataflow.consumers.get(key, [])
    side = assignment[key]
    if any(assignment[c] is not side for c in consumer_ids):
        return Transfer(
            key=key,
            dtype=dataflow.producer_dtype[key],
            to_vector=(side is Side.SCALAR),
        )
    return None
