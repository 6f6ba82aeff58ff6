from __future__ import annotations

import numpy as np
import pytest

from blockpec.errors import InvalidArgument
from blockpec.pauli import PauliZString


def test_constructors():
    assert PauliZString.single(4, 2).mask == 0b0100
    assert PauliZString.from_qubits(5, (0, 3)).mask == 0b01001
    assert PauliZString.from_qubits(5, ()).mask == 0


def test_label():
    s = PauliZString(0b101, 3)
    assert s.label() == "ZIZ"
    assert str(s) == "ZIZ"
    assert PauliZString(0, 2).label() == "II"


def test_invalid_domains():
    with pytest.raises(InvalidArgument):
        PauliZString(0, 0)
    with pytest.raises(InvalidArgument):
        PauliZString(-1, 2)
    with pytest.raises(InvalidArgument):
        PauliZString(4, 2)


@pytest.mark.parametrize(
    "mask, n", [(1.5, 2), (1.0, 2), (True, 2), ("1", 2), (1, 2.0), (1, True), (None, 2)]
)
def test_mask_and_qubit_count_must_be_integers(mask, n):
    with pytest.raises(InvalidArgument, match="must be an integer"):
        PauliZString(mask, n)


def test_numpy_integers_are_stored_as_ints():
    s = PauliZString(np.int64(5), np.int32(3))
    assert (s.mask, s.n) == (5, 3) and type(s.mask) is int and type(s.n) is int
    assert s.label() == "ZIZ"


@pytest.mark.parametrize(
    "build",
    [
        lambda: PauliZString.single(2, 0.5),
        lambda: PauliZString.from_qubits(2, [0.5]),
        lambda: PauliZString.single(2, -1),
    ],
    ids=["single-float", "from_qubits-float", "single-negative"],
)
def test_qubit_indices_must_be_non_negative_integers(build):
    with pytest.raises(InvalidArgument, match="qubit must be"):
        build()
