"""Brute-force dense statevector simulation, used only for verification.

Deliberately shares nothing with the symbolic engine beyond the
Amplitude type: the state is a flat list of integer numerators with one
global power-of-sqrt(2) exponent, updated gate by gate.  Exact, simple,
and exponential.
"""

from __future__ import annotations

from .circuit import CMZ, Circuit, H, SWAP, X
from .exact import Amplitude

ORACLE_MAX_QUBITS = 14


def statevector_oracle(circuit: Circuit, bits, max_qubits: int = ORACLE_MAX_QUBITS
                       ) -> list[Amplitude]:
    """Exact amplitudes of circuit|bits>, indexed with qubit 0 as MSB."""
    n = circuit.num_qubits
    if n > max_qubits:
        raise ValueError(f"{n} qubits exceed the oracle cap of {max_qubits}")
    if isinstance(bits, str):
        bits = tuple(int(c) for c in bits)
    else:
        bits = tuple(bits)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"input must be {n} bits")

    dim = 1 << n
    start = 0
    for b in bits:
        start = (start << 1) | b
    nums = [0] * dim
    nums[start] = 1
    half_exp = 0

    for gate in circuit.gates:
        shifts = [n - 1 - q for q in gate.qubits]  # qubit 0 is the MSB
        if gate.kind == H:
            qbit = 1 << shifts[0]
            for idx in range(dim):
                if idx & qbit:
                    continue
                a, b = nums[idx], nums[idx | qbit]
                nums[idx], nums[idx | qbit] = a + b, a - b
            half_exp -= 1
        elif gate.kind == X:
            qbit = 1 << shifts[0]
            for idx in range(dim):
                if idx & qbit:
                    continue
                nums[idx], nums[idx | qbit] = nums[idx | qbit], nums[idx]
        elif gate.kind == SWAP:
            abit, bbit = 1 << shifts[0], 1 << shifts[1]
            for idx in range(dim):
                if idx & abit and not idx & bbit:
                    other = (idx ^ abit) | bbit
                    nums[idx], nums[other] = nums[other], nums[idx]
        elif gate.kind == CMZ:
            allbits = 0
            for s in shifts:
                allbits |= 1 << s
            for idx in range(dim):
                if idx & allbits == allbits:
                    nums[idx] = -nums[idx]
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")

    # one shared Amplitude per distinct value: a state holds few of them
    amps = {v: Amplitude(v, half_exp) for v in set(nums)}
    return [amps[v] for v in nums]


def marginal_one(amplitudes: list[Amplitude], n: int, qubit: int) -> Amplitude:
    """Exact probability that the given qubit measures 1."""
    qbit = 1 << (n - 1 - qubit)
    total = Amplitude(0)
    for idx, amp in enumerate(amplitudes):
        if idx & qbit:
            total = total + amp * amp
    return total
