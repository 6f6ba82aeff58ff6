"""Golden pins for pec_estimate: the exact bits of ``mean``,
``sample_variance`` and ``gamma_used`` for fixed (circuit, observable, mode,
samples, seed, shots), so any change to sampling, dedup or trajectory
evaluation that moves a single bit shows up here.

Each case covers one route through the estimator: std, blk and hybrid slots
on the density path (n <= 10), the statevector path (n = 11, 12), shot
sampling, dense and projector observables, and pass-through gates (XCZ/RBS).
"""

from __future__ import annotations

import numpy as np
import pytest

from blockpec.circuits import Circuit, parse_circuit
from blockpec.errors import UnsupportedKind
from blockpec.gates import GateOp
from blockpec.generators import gen_option_payoff, gen_rbs_pyramid, gen_swap_network
from blockpec.noise import NoiseSpec
from blockpec.simulate import Observable, pec_estimate

P01 = NoiseSpec("uncorrelated", 0.1)
X_MAT = np.array([[0.0, 1.0], [1.0, 0.0]])

CONSISTENCY = """qubits=3
H 0
RZ 0;theta=0.7
H 0
CNOT 0,1
H 1
RZ 1;theta=0.4
H 1
CNOT 1,2
"""


def _bell() -> Circuit:
    return Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1)))).with_noise(P01)


def _diag3() -> Circuit:
    return Circuit(
        2, (GateOp("X", (0,)), GateOp("RZZ", (0, 1), 0.37), GateOp("CNOT", (0, 1)))
    ).with_noise(P01)


def _hybrid3() -> Circuit:
    return Circuit(
        3,
        (
            GateOp("CNOT", (0, 1)),
            GateOp("RZ", (2,), 0.4),
            GateOp("H", (1,)),
            GateOp("RZZ", (1, 2), 0.9),
            GateOp("CZ", (0, 2)),
        ),
    ).with_noise(NoiseSpec("uncorrelated", 0.05))


def _swap5() -> Circuit:
    return gen_swap_network(5, 1.0, "rzz", 7).with_noise(NoiseSpec("uncorrelated", 0.015))


def _pyramid4() -> Circuit:
    return gen_rbs_pyramid(4, seed=4).with_noise(NoiseSpec("correlated", 0.02))


def _rbs_swap4() -> Circuit:
    return gen_swap_network(4, 1.0, "rbs", 2).with_noise(NoiseSpec("uncorrelated", 0.01))


def _ghz11() -> Circuit:
    ops = (GateOp("H", (0,)),) + tuple(GateOp("CNOT", (i, i + 1)) for i in range(10))
    return Circuit(11, ops).with_noise(NoiseSpec("uncorrelated", 0.05))


def _payoff12() -> Circuit:
    return gen_option_payoff(11, seed=3).with_noise(NoiseSpec("uncorrelated", 0.001))


def _swap11() -> Circuit:
    return gen_swap_network(11, 2.0 / 11, "rzz", 1).with_noise(NoiseSpec("uncorrelated", 0.01))


def _consistency() -> Circuit:
    return parse_circuit(CONSISTENCY).with_noise(P01)


def _ghz3_rz() -> Circuit:
    return parse_circuit("qubits=3\nH 0\nCNOT 0,1\nCNOT 1,2\nRZ 2;theta=0.7\n").with_noise(P01)


def _xxx() -> Observable:
    return Observable.dense(np.kron(np.kron(X_MAT, X_MAT), X_MAT))


def _x1() -> Observable:
    return Observable.dense(np.kron(np.kron(np.eye(2), X_MAT), np.eye(2)))


def _dense2() -> Observable:
    m = np.array(
        [
            [0.3, 0.2 - 0.1j, 0, 0.4],
            [0.2 + 0.1j, -0.5, 0.1, 0],
            [0, 0.1, 0.2, 0.3j],
            [0.4, 0, -0.3j, 0.1],
        ]
    )
    return Observable.dense(m)


def _z(n: int, qubit: int):
    return lambda: Observable.z(n, qubit)


def _one(n: int, qubit: int):
    return lambda: Observable.qubit_one_projector(n, qubit)


# name -> (circuit, observable, mode, n_samples, seed, shots)
CASES = {
    "std_density": (_consistency, _z(3, 0), "std", 2000, 0, None),
    "std_density_correlated": (_pyramid4, _z(4, 3), "std", 1000, 5, None),
    "std_density_qubit_one_projector": (_pyramid4, _one(4, 2), "std", 500, 8, None),
    "std_density_rbs": (_rbs_swap4, _z(4, 1), "std", 800, 6, None),
    "blk_density": (_diag3, _z(2, 0), "blk", 1500, 3, None),
    "blk_density_swap5": (_swap5, _z(5, 0), "blk", 3000, 11, None),
    "blk_density_rbs": (_rbs_swap4, _z(4, 1), "blk", 800, 6, None),
    "hybrid_density": (_hybrid3, _x1, "hybrid", 1200, 4, None),
    "hybrid_density_swap5": (_swap5, _z(5, 0), "hybrid", 3000, 12, None),
    "std_shots_1": (_consistency, _z(3, 0), "std", 600, 9, 1),
    "std_shots_4096": (_consistency, _z(3, 0), "std", 600, 9, 4096),
    "std_dense_xxx": (_ghz3_rz, _xxx, "std", 400, 7, None),
    "hybrid_dense": (_bell, _dense2, "hybrid", 600, 13, None),
    "std_statevector_n11": (_ghz11, _one(11, 10), "std", 300, 2, None),
    "std_statevector_n11_shots": (_ghz11, _one(11, 10), "std", 300, 2, 16),
    "std_statevector_n12": (_payoff12, _z(12, 11), "std", 384, 15, None),
    "hybrid_statevector_n12": (_payoff12, _z(12, 11), "hybrid", 200, 16, None),
    "blk_statevector_n11": (_swap11, _z(11, 0), "blk", 200, 17, None),
}

# name -> (mean, sample_variance, gamma_used) as float.hex, recorded with the
# per-trajectory estimator that re-evolved every unique trajectory from |0>.
PINS = {
    "blk_density": ('-0x1.f21f671529a48p-1', '0x1.9e1f0a2d3c09ap+2', '0x1.5c80000000000p+1'),
    "blk_density_rbs": ('-0x1.62f5b64ad3c09p-3', '0x1.45a199b303fb6p-1', '0x1.bccf307b644dap+1'),
    "blk_density_swap5": ('0x1.a69ea02ca22f2p-1', '0x1.8222e08f55f3ep+5', '0x1.bfb0b6b17365fp+2'),
    "blk_statevector_n11": ('0x1.d509cb3745cf6p-1', '0x1.43e16643e7b07p+4', '0x1.25261f028ba1ap+2'),
    "hybrid_dense": ('0x1.3cccccccccccdp-1', '0x1.adb75877aa860p-4', '0x1.f400000000000p+0'),
    "hybrid_density": ('0x1.4363d9633d531p-1', '0x1.f0a24a79e7f24p-1', '0x1.2959f1280cee3p+1'),
    "hybrid_density_swap5": (
        "0x1.ccd291ba11bfbp-1",
        "0x1.811b1df0521d3p+5",
        "0x1.bfb0b6b17365fp+2",
    ),
    "hybrid_statevector_n12": (
        "0x1.a175a29b420ffp-4",
        "0x1.fd1e5ff39d0f4p-4",
        "0x1.706c91ccaeb66p+0",
    ),
    "std_dense_xxx": ('0x1.87996529f9d96p-1', '0x0.0p+0', '0x1.e848000000000p+1'),
    "std_density": ('0x1.7ecb67be30bd2p-1', '0x1.43be31f7eba8ap+4', '0x1.2a05f20000000p+3'),
    "std_density_correlated": (
        "-0x1.831b25597e285p-1",
        "0x1.4696b4d7d96aep+1",
        "0x1.13473c16b3e20p+1",
    ),
    "std_density_qubit_one_projector": (
        "0x1.03898531619ddp-3",
        "0x1.0255ba2a7be53p-4",
        "0x1.13473c16b3e20p+1",
    ),
    "std_density_rbs": ('-0x1.bc4aedfddbacep-3', '0x1.0cafe35169562p+0', '0x1.12188c4661704p+2'),
    "std_shots_1": ('0x1.0642ac0000000p+0', '0x1.5751a0f8d459cp+6', '0x1.2a05f20000000p+3'),
    "std_shots_4096": ('0x1.d6df70afd5555p-1', '0x1.3ff617717aa4cp+4', '0x1.2a05f20000000p+3'),
    "std_statevector_n11": ('0x1.f31f04ac20635p-2', '0x1.4b66e4b279b4dp+4', '0x1.24742cbcdafa4p+3'),
    "std_statevector_n11_shots": (
        "0x1.958933cbda50cp-2",
        "0x1.8ee73af78c1d7p+4",
        "0x1.24742cbcdafa4p+3",
    ),
    "std_statevector_n12": ('0x1.12c83fc7054a0p-3', '0x1.360cdf0032a16p-3', '0x1.70898c8fe4281p+0'),
}


def _run(name):
    make_c, make_obs, mode, n_samples, seed, shots = CASES[name]
    return pec_estimate(make_c(), make_obs(), mode, n_samples, seed, shots=shots)


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimator_report_bits(name):
    report = _run(name)
    got = (
        float.hex(report.mean),
        float.hex(report.sample_variance),
        float.hex(report.gamma_used),
    )
    assert got == PINS[name]


@pytest.mark.parametrize("mode", ["std", "blk", "hybrid"])
def test_impure_noise_is_refused_by_every_mode(mode):
    # Slot building inverts each noise tag as a Z-mixture, which impure
    # (X/Y-carrying) noise is not, so the density path never sees it.
    c = Circuit(
        2,
        (GateOp("X", (0,)), GateOp("CNOT", (0, 1))),
        (NoiseSpec("impure", 0.05, q=1.0), P01),
    )
    with pytest.raises(UnsupportedKind):
        pec_estimate(c, Observable.z(2, 0), mode, 100, 1)
