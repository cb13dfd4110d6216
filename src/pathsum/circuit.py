"""Circuit IR over {H, X, C^(m)Z, SWAP}, its text format, and generators.

The text format is line oriented: a ``qubits N`` header, then one gate
per line (``h q``, ``x q``, ``swap q1 q2``, ``z q1 [q2 ...]`` meaning a
multiply-controlled Z on all listed qubits).  ``#`` starts a comment
and whitespace is insignificant beyond separating tokens.  Lines end at
``\n``, ``\r\n`` and ``\r`` only; form feeds, U+2028 and the other
characters ``str.splitlines`` also breaks at stay in their line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

H = "h"
X = "x"
CMZ = "z"
SWAP = "swap"

_KINDS = (H, X, CMZ, SWAP)

#: largest number of controls on a C^(m)Z that ``parse`` accepts (CCZ)
DEFAULT_MAX_CONTROLS = 2

#: largest ``qubits N`` header ``parse`` accepts; interpretation allocates
#: a polynomial per wire, so the header alone must not size the work
MAX_QUBITS = 4096


class CircuitParseError(ValueError):
    """Structured parse failure carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _check_ints(values, what: str) -> None:
    """Refuse a value whose type is not exactly int: a float or a bool
    passes every range check, and serializes to text ``parse`` refuses."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} {v!r} is not an int")


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        kind, qubits = self.kind, self.qubits
        if type(qubits) is not tuple:
            qubits = tuple(qubits)
            object.__setattr__(self, "qubits", qubits)
        if kind not in _KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = len(qubits)
        if (kind == H or kind == X) and arity != 1:
            raise ValueError(f"{kind} takes one qubit, got {arity}")
        if kind == SWAP and arity != 2:
            raise ValueError(f"swap takes two qubits, got {arity}")
        if kind == CMZ and arity < 1:
            raise ValueError("z takes at least one qubit")
        _check_ints(qubits, "qubit index")
        if len(set(qubits)) != arity:
            raise ValueError(f"repeated qubit in {kind} {qubits}")
        if min(qubits) < 0:  # every kind has at least one qubit by now
            raise ValueError("negative qubit index")


@dataclass(frozen=True)
class Circuit:
    """Gates on qubits 0 to num_qubits - 1; the constructor checks that.

    ``parse``, the generators, ``sim._light_cone`` and ``fuzz`` build
    with ``_circuit`` (and ``_gate``) instead, which check nothing: their
    gates pass the checks by construction (lookups, ``range(num_qubits)``,
    or gates of a circuit already built).
    """

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_ints((self.num_qubits,), "qubit count")
        if self.num_qubits < 0:
            raise ValueError("negative qubit count")
        for g in self.gates:
            if not isinstance(g, Gate):
                raise ValueError(f"{g!r} is not a Gate")
            for q in g.qubits:
                if q >= self.num_qubits:
                    raise ValueError(
                        f"gate {g.kind} touches qubit {q} "
                        f"but the circuit has {self.num_qubits}"
                    )


# a slotted Gate has no per-instance dict; its slot descriptors set its
# fields past the frozen __setattr__, for less than object.__setattr__
_set_kind, _set_qubits = Gate.kind.__set__, Gate.qubits.__set__


def _gate(kind: str, qubits: tuple[int, ...]) -> Gate:
    """``Gate(kind, qubits)`` without its checks, for values that pass them."""
    gate = object.__new__(Gate)
    _set_kind(gate, kind)
    _set_qubits(gate, qubits)
    return gate


def _circuit(num_qubits: int, gates) -> Circuit:
    """``Circuit(num_qubits, gates)`` without its checks, for valid gates
    on qubits below ``num_qubits``."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "num_qubits", num_qubits)
    object.__setattr__(circuit, "gates", tuple(gates))
    return circuit


# ---------------------------------------------------------------------------
# text format

#: mnemonics that parse as C^(m)Z, with the qubit count each takes
_ALIASES = {"cz": 2, "ccz": 3}

#: the gate kind of each lower-case mnemonic, by the line's token count:
#: the lines ``parse`` reads by lookup, when their qubits are canonical
_MNEMONICS = {("h", 2): H, ("x", 2): X, ("swap", 3): SWAP,
              ("z", 2): CMZ, ("z", 3): CMZ, ("z", 4): CMZ,  # at most CCZ
              ("cz", 3): CMZ, ("ccz", 4): CMZ}


def parse(text: str) -> Circuit:
    """Parse the circuit text format; raises CircuitParseError on any input.

    An error names the line and the column of the line's first token
    (of the bad token, for a non-integer).  A gate line that repeats an
    earlier one, character for character, is parsed once: the repeat
    shares the first one's (frozen) ``Gate``.
    An integer is an optional '-' and ASCII digits (``_integer``).  A
    leading byte-order mark is skipped, as the CLI's reading drops it.

    A line whose mnemonic and token count are in ``_MNEMONICS`` has its
    1, 2 or 3 qubit tokens looked up and compared by arity; if they are
    distinct and written "0" to "N-1", its ``Gate`` is built unchecked.
    Any other line (the header and those before it, upper case, "007",
    a repeated qubit) takes the checks one by one, range-checked here.
    """
    if not isinstance(text, str):
        raise CircuitParseError("input is not text", 1)
    if text[:1] == "\ufeff":
        text = text[1:]
    if "\r" in text:  # end lines where open()'s universal newlines do
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    num_qubits: Optional[int] = None
    index: dict[str, int] = {}  # after the header, "0" to "N-1", by token
    get = index.get  # None for a token that is not a qubit as serialize writes it
    gates: list[Gate] = []
    parsed: dict[str, Gate] = {}  # gate lines that validated, by their text
    try:
        for lineno, raw in enumerate(text.split("\n"), start=1):
            gate = parsed.get(raw)
            if gate is not None:
                gates.append(gate)
                continue
            tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if not tokens:
                continue
            arity = len(tokens) - 1
            kind = _MNEMONICS.get((tokens[0], arity + 1))
            if kind is not None:
                a = get(tokens[1])
                if arity == 1:
                    qubits = (a,)
                elif arity == 2:
                    b = get(tokens[2])
                    qubits = (a, b) if a != b else (None,)
                else:
                    b, c = get(tokens[2]), get(tokens[3])
                    qubits = (a, b, c) if a != b != c != a else (None,)
                if None not in qubits:
                    gate = object.__new__(Gate)
                    _set_kind(gate, kind)
                    _set_qubits(gate, qubits)
                    gates.append(gate)
                    parsed[raw] = gate
                    continue
            head = tokens[0].lower()
            if num_qubits is None:
                if head != "qubits":
                    raise _LineError("expected 'qubits N' header")
                if len(tokens) != 2:
                    raise _LineError("'qubits' takes one count")
                num_qubits = _ints(tokens, lineno, raw)[0]
                if num_qubits < 0:
                    raise _LineError("negative qubit count")
                if num_qubits > MAX_QUBITS:
                    raise _LineError(f"{num_qubits} qubits exceed the maximum "
                                     f"of {MAX_QUBITS}")
                index.update({str(q): q for q in range(num_qubits)})
                continue
            if head in _ALIASES:
                want = _ALIASES[head]
                if len(tokens) - 1 != want:
                    raise _LineError(
                        f"{head} takes {want} qubits, got {len(tokens) - 1}")
                head = CMZ
            elif head not in _KINDS:
                raise _LineError(f"unknown gate mnemonic {head!r}")
            qubits = _ints(tokens, lineno, raw)
            if head == CMZ and len(qubits) > DEFAULT_MAX_CONTROLS + 1:
                raise _LineError(f"z on {len(qubits)} qubits exceeds the "
                                 f"maximum of {DEFAULT_MAX_CONTROLS} controls")
            try:
                gate = Gate(head, qubits)
            except ValueError as exc:
                raise _LineError(str(exc)) from None
            if max(qubits) >= num_qubits:  # a Gate has at least one qubit
                q = next(q for q in qubits if q >= num_qubits)
                raise _LineError(f"qubit {q} out of range for {num_qubits} qubits")
            gates.append(gate)
            parsed[raw] = gate
    except _LineError as exc:
        raise CircuitParseError(str(exc), lineno,
                                raw.index(tokens[0]) + 1) from None
    if num_qubits is None:
        raise CircuitParseError("empty input: missing 'qubits N' header", 1)
    return _circuit(num_qubits, gates)


class _LineError(Exception):
    """A parse error at the first token of the current line."""


def _integer(token: str) -> int:
    """A base-10 integer written as an optional '-' and ASCII digits.

    ``int`` alone also reads '+1', '1_0' and non-ASCII digits, such as
    the Arabic-Indic ones; neither the circuit format nor the CLI's
    integer options do.
    """
    digits = token[1:] if token[:1] == "-" else token
    if digits.isascii() and digits.isdigit():
        return int(token)
    raise ValueError(f"expected an integer, got {token!r}")


def _ints(tokens: list[str], lineno: int, raw: str) -> tuple[int, ...]:
    """The line's tokens after its first as integers (``_integer``); the
    first one that is not is the error, at its own column in the line
    ``raw``."""
    end = raw.index(tokens[0]) + len(tokens[0])
    values = []
    for token in tokens[1:]:
        start = raw.index(token, end)  # only blanks lie in between
        end = start + len(token)
        try:
            values.append(_integer(token))
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno, start + 1) from None
    return tuple(values)


def serialize(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.num_qubits}"]
    for g in circuit.gates:
        lines.append(" ".join([g.kind, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators

def random_circuit(num_qubits: int, depth: int, max_controls: int = DEFAULT_MAX_CONTROLS,
                   seed: int = 0) -> Circuit:
    """Uniform random gates on random distinct qubits; reproducible by seed."""
    _check_ints((num_qubits,), "qubit count")
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    if num_qubits > MAX_QUBITS:  # parse would refuse the circuit
        raise ValueError(f"{num_qubits} qubits exceed the maximum of {MAX_QUBITS}")
    if max_controls + 1 > num_qubits:
        raise ValueError("max_controls + 1 must not exceed the qubit count")
    rng = random.Random(seed)
    pool: list[tuple[str, int]] = [(H, 1), (X, 1)]
    pool.extend((CMZ, m + 1) for m in range(max_controls + 1))
    if num_qubits >= 2:
        pool.append((SWAP, 2))
    gates = []
    for _ in range(depth):
        kind, arity = rng.choice(pool)
        gates.append(_gate(kind, tuple(rng.sample(range(num_qubits), arity))))
    return _circuit(num_qubits, gates)


# ---------------------------------------------------------------------------
# hidden-shift instances

@dataclass(frozen=True)
class HiddenShiftSpec:
    """Parameters of one hidden-shift instance.

    ``g_monomials`` are index tuples over the first n/2 coordinates (each
    of size 1..3, so the oracle layers need at most CCZ gates), ``shift``
    is the hidden bitstring, and ``pi`` the coordinate permutation used by
    the inner-product coupling (identity when omitted).
    """

    n: int
    g_monomials: frozenset[tuple[int, ...]] = frozenset()
    shift: tuple[int, ...] = ()
    pi: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "g_monomials",
                           frozenset(tuple(sorted(m)) for m in self.g_monomials))
        object.__setattr__(self, "shift", tuple(self.shift))
        if self.pi is not None:
            object.__setattr__(self, "pi", tuple(self.pi))
        _check_ints((self.n,), "qubit count")
        if self.n < 2 or self.n % 2:
            raise ValueError("qubit count must be even and at least 2")
        if self.n > MAX_QUBITS:  # parse would refuse the circuit
            raise ValueError(f"{self.n} qubits exceed the maximum of {MAX_QUBITS}")
        half = self.n // 2
        if len(self.shift) != self.n or any(b not in (0, 1) for b in self.shift):
            raise ValueError(f"shift must be a bit vector of length {self.n}")
        for mono in self.g_monomials:
            _check_ints(mono, "monomial index")
            if not 1 <= len(mono) <= 3:
                raise ValueError(f"monomial {mono} must have 1..3 indices")
            if len(set(mono)) != len(mono):
                raise ValueError(f"monomial {mono} has repeated indices")
            if any(not 0 <= a < half for a in mono):
                raise ValueError(f"monomial {mono} out of range 0..{half - 1}")
        if self.pi is not None:
            _check_ints(self.pi, "pi index")
            if sorted(self.pi) != list(range(half)):
                raise ValueError(f"pi must be a permutation of 0..{half - 1}")

    def permutation(self) -> tuple[int, ...]:
        return self.pi if self.pi is not None else tuple(range(self.n // 2))


def hidden_shift_circuit(spec: HiddenShiftSpec) -> Circuit:
    """Instance circuit that maps |0..0> deterministically to |shift>.

    The underlying function on (u, v) is sum_i u_i v_{pi(i)} plus g(v);
    its dual couples the same wire pairs and evaluates g on the first
    half through the inverse permutation.  The shift enters as X
    conjugation around the first oracle layer.
    """
    n = spec.n
    half = n // 2
    pi = spec.permutation()
    pi_inv = [0] * half
    for i, p in enumerate(pi):
        pi_inv[p] = i
    gmonos = sorted(spec.g_monomials)

    gates: list[Gate] = []

    def h_layer():
        gates.extend(_gate(H, (q,)) for q in range(n))

    def shift_layer():
        gates.extend(_gate(X, (q,)) for q in range(n) if spec.shift[q])

    def coupling_layer():
        gates.extend(_gate(CMZ, (i, half + pi[i])) for i in range(half))

    h_layer()
    shift_layer()
    coupling_layer()
    for mono in gmonos:  # g on the second half
        gates.append(_gate(CMZ, tuple(half + a for a in mono)))
    shift_layer()
    h_layer()
    coupling_layer()
    for mono in gmonos:  # dual's g on the first half, through pi^-1
        gates.append(_gate(CMZ, tuple(sorted(pi_inv[a] for a in mono))))
    h_layer()
    return _circuit(n, gates)
