"""Value classes that hold arrays compare and hash by identity: ``==``, ``!=``
and ``in`` never ask numpy for the truth value of an array. Two values are
the same state or channel when ``np.array_equal`` holds on their arrays."""

import copy

import numpy as np
import pytest

from qsnapshot.core import DensityMatrix, StateVector
from qsnapshot.estimators import ReconstructionReport
from qsnapshot.noise import bit_flip_channel, calibrated_noise_model
from qsnapshot.store import SnapshotRecord

VALUES = {
    "StateVector": lambda: StateVector.computational_basis(1),
    "DensityMatrix": lambda: DensityMatrix(1, np.eye(2) / 2),
    "KrausChannel": lambda: bit_flip_channel(0.1),
    "NoiseModel": calibrated_noise_model,
    "SnapshotRecord": lambda: SnapshotRecord.from_state(StateVector.computational_basis(1),
                                                        method="qeswap", seed=3),
    "ReconstructionReport": lambda: ReconstructionReport(
        "qeswap", "statevector", 1, 1.0, 1, 50, [1.0], 0,
        final_candidate=StateVector.computational_basis(1)),
}
HASHABLE = {"StateVector", "DensityMatrix", "KrausChannel", "NoiseModel"}


@pytest.mark.parametrize("name", VALUES)
def test_comparisons_do_not_raise(name):
    x = VALUES[name]()
    other = copy.deepcopy(x)  # equal arrays, none of them shared
    assert x == x
    assert x != other
    assert x in [other, x]
    if name in HASHABLE:
        assert len({x, other}) == 2
