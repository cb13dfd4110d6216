"""References the tests compare the engine against, and their generators.

None of this is in the package: dense matrix algebra for the
homomorphism laws, each gate's defining sum, variable renamings, point
evaluation of polynomials, the affine step's detector as a second scan,
the confluence fuzz sum as a compose fold and the renaming into it,
the circuit parser that checks every line one check at a time, and
random sums, circuits, circuit texts and instances.
"""

from typing import Optional

from hypothesis import strategies as st

from pathsum.boolpoly import BoolPoly
from pathsum.circuit import (_ALIASES, _KINDS, CMZ, DEFAULT_MAX_CONTROLS,
                             MAX_QUBITS, Circuit, CircuitParseError, Gate,
                             HiddenShiftSpec, _integer, _LineError,
                             random_circuit, serialize)
from pathsum.exact import Amplitude
from pathsum.rewrite import _rule_at
from pathsum.sums import PathSum, bra, compose, interpret, ket


def bits_to_index(bits):
    """Big-endian index of a bit sequence: qubit 0 is the top bit."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def poly_of(*terms):
    """The polynomial with these monomials, as variable-index tuples:
    poly_of((0, 1), (2,), ()) is x0*x1 + x2 + 1 (x*x = x, and equal
    monomials cancel)."""
    return BoolPoly([sum(1 << v for v in set(term)) for term in terms])


def eval_mask(p, point):
    """Value of p in GF(2) at the point given as a bitmask of variables."""
    return sum(m & point == m for m in p.monomials) & 1


# dense matrices are lists of rows of Amplitudes, as ``evaluate`` returns

def identity_matrix(size):
    return [[Amplitude(int(i == j)) for j in range(size)] for i in range(size)]


def column(m, j):
    return [row[j] for row in m]


def matmul(a, b):
    assert len(a[0]) == len(b)
    return [[sum((x * y for x, y in zip(row, col)), Amplitude(0))
             for col in zip(*b)] for row in a]


def kron(a, b):
    p, q = len(b), len(b[0])
    return [[a[i // p][j // q] * b[i % p][j % q]
             for j in range(len(a[0]) * q)] for i in range(len(a) * p)]


def dagger(a):
    """Transpose; every entry is real."""
    return [list(col) for col in zip(*a)]


def gate_sem(gate):
    """The defining path sum of one gate, on its own wires."""
    if gate.kind == "h":
        x, y = BoolPoly.var(0), BoolPoly.var(1)
        return PathSum(Amplitude(1, -1), 2, x * y, (y,), (x,))
    if gate.kind == "x":
        x = BoolPoly.var(0)
        return PathSum(Amplitude(1), 1, BoolPoly.zero(),
                       (x + BoolPoly.one(),), (x,))
    if gate.kind == "z":
        arity = len(gate.qubits)
        wires = tuple(BoolPoly.var(i) for i in range(arity))
        return PathSum(Amplitude(1), arity, BoolPoly([(1 << arity) - 1]),
                       wires, wires)
    x, y = BoolPoly.var(0), BoolPoly.var(1)  # swap
    return PathSum(Amplitude(1), 2, BoolPoly.zero(), (y, x), (x, y))


def apply_simple_transform(a, phi):
    """Apply a variable bijection with per-variable negations uniformly."""
    k = a.num_vars
    if sorted(phi) != list(range(k)):
        raise ValueError(f"map must cover exactly variables 0..{k - 1}")
    if sorted(w for w, _ in phi.values()) != list(range(k)):
        raise ValueError("map targets must be a permutation of the variables")
    return PathSum(a.scalar, k, a.phase.apply_simple_map(phi),
                   tuple(p.apply_simple_map(phi) for p in a.outputs),
                   tuple(p.apply_simple_map(phi) for p in a.inputs))


def affine_rule_at(x, occ, on_wire):
    """``_rule_at`` with the affine step, by a second scan of x's monomials.

    The rule without it, or else the affine step (rank 3) at a wire-free
    x whose cofactor is affine: its one target is the lowest bare
    cofactor variable.
    """
    rule = _rule_at(x, occ, on_wire)
    if rule is not None or on_wire:
        return rule
    xbit = 1 << x
    lmasks = [m ^ xbit for m in occ]
    if any(r & (r - 1) for r in lmasks):  # a cofactor monomial of degree 2+
        return None
    # not ELIM, Z or HH, so at least three of the masks are bare variables
    return 3, [min(filter(None, lmasks)).bit_length() - 1], lmasks


def _random_poly(rng, num_vars, terms, max_degree=3):
    masks = []
    for _ in range(terms):
        degree = min(rng.choice((0, 1, 1, 1, 2, 2, 3)), max_degree, num_vars)
        m = 0
        for v in rng.sample(range(num_vars), degree) if degree else ():
            m |= 1 << v
        masks.append(m)
    return BoolPoly(masks)


def random_path_sum(rng, max_vars=8, max_wires=3, n_in=None, n_out=None):
    """Directly sampled sum: arbitrary phase/wire polynomials, small."""
    k = rng.randint(0, max_vars)
    if n_out is None:
        n_out = rng.randint(0, max_wires)
    if n_in is None:
        n_in = rng.randint(0, max_wires)
    phase = _random_poly(rng, k, rng.randint(0, k + 2))
    outputs = tuple(_random_poly(rng, k, rng.randint(0, 2), max_degree=2)
                    for _ in range(n_out))
    inputs = tuple(_random_poly(rng, k, rng.randint(0, 2), max_degree=2)
                   for _ in range(n_in))
    return PathSum(Amplitude(1, rng.randint(-6, 6)), k, phase, outputs, inputs)


def fuzz_circuit(rng, max_qubits, max_gates):
    """The fuzz generator's first draws: a width and a random circuit."""
    n = rng.randint(1, max_qubits)
    depth = rng.randint(1, max_gates)
    return random_circuit(n, depth, max_controls=min(2, n - 1) if n > 1 else 0,
                          seed=rng.getrandbits(32))


def fuzz_caps(rng, s, n):
    """The fuzz generator's last draws: a random ket and bra on s."""
    if rng.randrange(2):
        s = compose(s, ket(tuple(rng.randrange(2) for _ in range(n))))
    if rng.randrange(2):
        s = compose(bra(tuple(rng.randrange(2) for _ in range(n))), s)
    return s


def reference_path_sum_from_circuit(rng, max_qubits=3, max_gates=6):
    """The confluence fuzz sum as a compose fold of one-gate
    interpretations, optionally capped with kets/bras."""
    circ = fuzz_circuit(rng, max_qubits, max_gates)
    n = circ.num_qubits
    s = interpret(Circuit(n, circ.gates[:1]))
    for gate in circ.gates[1:]:
        s = compose(interpret(Circuit(n, (gate,))), s)
    return fuzz_caps(rng, s, n)


def spliced(circ):
    """circ with h q; h q on every wire q between consecutive gates: the
    circuit whose one interpretation, capped, is the confluence fuzz sum."""
    n = circ.num_qubits
    gates = []
    for j, gate in enumerate(circ.gates):
        if j:
            for q in range(n):
                gates += [Gate("h", (q,)), Gate("h", (q,))]
        gates.append(gate)
    return Circuit(n, tuple(gates))


def fold_renaming(circ, num_vars):
    """The renaming of interpret(spliced(circ)), capped to num_vars
    variables, into the numbering of the compose fold of circ's gates.

    compose(interpret(g2), interpret(g1)) is interpret(g1; h q; h q on
    every wire q; g2) up to renaming: the first h on a wire is the
    mediator and the second g2's input variable.  In the fold, gate j's
    block (n inputs, then its H variable) starts after the blocks of the
    later gates, and the mediators follow all blocks, boundary by
    boundary, wire by wire.  The caps' mediators come after both sums'
    variables, so they keep their numbers.
    """
    n = circ.num_qubits
    blocks = [n + (gate.kind == "h") for gate in circ.gates]
    med = sum(blocks)
    phi = {}
    v = 0  # interpret's next variable
    for j, gate in enumerate(circ.gates):
        start = sum(blocks[j + 1:])
        for q in range(n):
            if j:  # the mediator, then the gate's input variable
                phi[v] = (med, 0)
                med += 1
                v += 1
            phi[v] = (start + q, 0)
            v += 1
        if gate.kind == "h":
            phi[v] = (start + n, 0)
            v += 1
    phi.update((w, (w, 0)) for w in range(v, num_vars))
    return phi


def reference_parse(text: str) -> Circuit:
    """``parse`` as it was before it read lines by lookup: every line
    takes each check in turn, and the circuit is built checked.  It does
    not skip a byte-order mark."""
    if not isinstance(text, str):
        raise CircuitParseError("input is not text", 1)
    # int reads every token _integer does, and also '+1', '1_0' and
    # non-ASCII digits; a text without '+', '_' and non-ASCII characters
    # holds none of those, so int alone reads it, a call per token cheaper
    read = (int if text.isascii() and "+" not in text and "_" not in text
            else _integer)
    if "\r" in text:  # end lines where open()'s universal newlines do
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    num_qubits: Optional[int] = None
    gates: list[Gate] = []
    parsed: dict[str, Gate] = {}  # gate lines that validated, by their text
    try:
        for lineno, raw in enumerate(text.split("\n"), start=1):
            gate = parsed.get(raw)
            if gate is not None:
                gates.append(gate)
                continue
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            head = tokens[0].lower()
            if num_qubits is None:
                if head != "qubits":
                    raise _LineError("expected 'qubits N' header")
                if len(tokens) != 2:
                    raise _LineError("'qubits' takes one count")
                num_qubits = _reference_ints(tokens, read, lineno, raw)[0]
                if num_qubits < 0:
                    raise _LineError("negative qubit count")
                if num_qubits > MAX_QUBITS:
                    raise _LineError(f"{num_qubits} qubits exceed the maximum "
                                     f"of {MAX_QUBITS}")
                continue
            if head in _ALIASES:
                want = _ALIASES[head]
                if len(tokens) - 1 != want:
                    raise _LineError(
                        f"{head} takes {want} qubits, got {len(tokens) - 1}")
                head = CMZ
            elif head not in _KINDS:
                raise _LineError(f"unknown gate mnemonic {head!r}")
            qubits = _reference_ints(tokens, read, lineno, raw)
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
    return Circuit(num_qubits, tuple(gates))


def _reference_ints(tokens, read, lineno, raw):
    """The line's tokens after its first as integers, each read by
    ``read`` (``int`` or ``_integer``); the first one ``_integer`` refuses
    is the error, at its own column in the line ``raw``."""
    try:
        return tuple(map(read, tokens[1:]))
    except ValueError:
        end = raw.index(tokens[0]) + len(tokens[0])
        for token in tokens[1:]:
            start = raw.index(token, end)  # only blanks lie in between
            end = start + len(token)
            try:
                _integer(token)
            except ValueError as exc:
                raise CircuitParseError(str(exc), lineno, start + 1) from None
        raise


def parse_outcome(parse, text):
    """What ``parse`` makes of text: its circuit, or its error's message
    (which holds the line and column) and the line and column fields."""
    try:
        return parse(text)
    except CircuitParseError as exc:
        return str(exc), exc.line, exc.column


def assert_checked_build(circuit):
    """The circuit equals its rebuild through the checking constructors,
    and its count and each gate's qubits are ints, in tuples."""
    rebuilt = Circuit(circuit.num_qubits,
                      [Gate(g.kind, g.qubits) for g in circuit.gates])
    assert rebuilt == circuit
    assert type(circuit.num_qubits) is int and type(circuit.gates) is tuple
    for g in circuit.gates:
        assert type(g.qubits) is tuple
        assert all(type(q) is int for q in g.qubits), g


def random_hidden_shift_spec(n, rng):
    """Random instance parameters: shift, up to 4 small monomials of g,
    and a random coordinate permutation half of the time."""
    half = n // 2
    shift = tuple(rng.randrange(2) for _ in range(n))
    monos = set()
    for _ in range(rng.randrange(5)):
        size = rng.randrange(1, min(3, half) + 1)
        monos.add(tuple(sorted(rng.sample(range(half), size))))
    pi = None
    if rng.randrange(2):
        perm = list(range(half))
        rng.shuffle(perm)
        pi = tuple(perm)
    return HiddenShiftSpec(n=n, g_monomials=frozenset(monos), shift=shift, pi=pi)


def nonlinear_shift_circuit(n, shift, network, g_monomials):
    """A Maiorana-McFarland hidden-shift instance whose pi is a network.

    f(u, v) = u.pi(v) + g(v) on halves u and v, pi the in-place network
    of (controls, target) pairs on a half register, each a Toffoli or a
    CNOT written as H.Z.H; the dual is pi^-1(u).v + g(pi^-1(u)).  The
    circuit maps |0...0> to |shift>; with a nonlinear pi its state sum
    keeps variables after normalization.
    """
    half = n // 2
    u, v = range(half), range(half, n)
    gates = []

    def hadamards():
        gates.extend(Gate("h", (q,)) for q in range(n))

    def flips():
        gates.extend(Gate("x", (q,)) for q in range(n) if shift[q])

    def pi(reg, inverse):
        for controls, t in reversed(network) if inverse else network:
            gates.append(Gate("h", (reg[t],)))
            gates.append(Gate("z", tuple(sorted(reg[c] for c in (*controls, t)))))
            gates.append(Gate("h", (reg[t],)))

    def g(reg):
        gates.extend(Gate("z", tuple(reg[a] for a in m)) for m in g_monomials)

    def couple():
        gates.extend(Gate("z", (u[i], v[i])) for i in range(half))

    hadamards()
    flips()
    g(v)
    pi(v, False)
    couple()
    pi(v, True)
    flips()
    hadamards()
    pi(u, True)
    couple()
    g(u)
    pi(u, False)
    hadamards()
    return Circuit(n, tuple(gates))


def random_network(rng, width, depth):
    """A random pi network for ``nonlinear_shift_circuit``: ``depth``
    (controls, target) pairs on ``width`` wires, each a CNOT or a
    Toffoli with even odds."""
    network = []
    for _ in range(depth):
        t = rng.randrange(width)
        others = [q for q in range(width) if q != t]
        controls = tuple(sorted(rng.sample(others, rng.choice((1, 2)))))
        network.append((controls, t))
    return network


@st.composite
def path_sums(draw, max_vars=7):
    """Small sums with up to 3 in and 3 out wires; shrinks termwise."""
    k = draw(st.integers(0, max_vars))
    term = st.lists(st.integers(0, k - 1), max_size=3) if k else st.just([])
    poly = lambda size: st.lists(term, max_size=size).map(
        lambda terms: poly_of(*terms))
    return PathSum(Amplitude(1, draw(st.integers(-4, 4))), k, draw(poly(8)),
                   draw(st.lists(poly(2), max_size=3)),
                   draw(st.lists(poly(2), max_size=3)))


@st.composite
def circuits(draw, max_qubits=6, max_gates=20):
    """Random circuits over the whole gate set, at most two controls."""
    n = draw(st.integers(1, max_qubits))
    arities = [("h", 1), ("x", 1), ("z", 1)]
    arities += [("z", m) for m in (2, 3) if m <= n]
    if n >= 2:
        arities.append(("swap", 2))
    gate = st.sampled_from(arities).flatmap(lambda ka: st.lists(
        st.integers(0, n - 1), min_size=ka[1], max_size=ka[1], unique=True
    ).map(lambda qs: Gate(ka[0], tuple(qs))))
    return Circuit(n, tuple(draw(st.lists(gate, max_size=max_gates))))


#: one token's respellings: zero-padded, signed, '_'-grouped, a non-ASCII
#: digit (Arabic-Indic one, fullwidth one) and a bare '-'
_RESPELLINGS = ("007", "-0", "+1", "1_0", "-1", "\u0661", "\uff11", "-")


@st.composite
def circuit_texts(draw):
    """Serialized circuits with up to five lines edited: a mnemonic in
    upper case or as a cz/ccz alias, a qubit respelled, out of range or
    repeated, a z on four qubits, a comment, tabs, a token dropped or
    added, a line repeated; the lines end in \\n or \\r\\n."""
    circuit = draw(circuits(max_qubits=5, max_gates=8))
    n = circuit.num_qubits
    lines = serialize(circuit).split("\n")
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split() or ["h", "0"]
        j = draw(st.integers(1, len(tokens) - 1)) if len(tokens) > 1 else 0
        edit = draw(st.sampled_from(
            ("upper", "alias", "respell", "range", "repeat", "z4",
             "comment", "tabs", "drop", "add", "copy")))
        if edit == "upper":
            tokens[0] = draw(st.sampled_from(
                (tokens[0].upper(), tokens[0].capitalize())))
        elif edit == "alias":
            tokens[0] = draw(st.sampled_from(("cz", "ccz", "CZ", "Ccz")))
        elif edit == "respell" and j:
            tokens[j] = draw(st.sampled_from(
                _RESPELLINGS + ("0" + tokens[j], "+" + tokens[j],
                                "-" + tokens[j])))
        elif edit == "range" and j:
            tokens[j] = str(n + draw(st.integers(0, 2)))
        elif edit == "repeat" and len(tokens) > 2:
            tokens[j] = tokens[1 + (j % (len(tokens) - 1))]
        elif edit == "z4":
            tokens = ["z", "0", "1", "2", "3"]
        elif edit == "drop" and len(tokens) > 1:
            del tokens[j]
        elif edit == "add":
            tokens.append(str(draw(st.integers(0, n))))
        elif edit == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        sep = "\t" if edit == "tabs" else " "
        lines[i] = sep.join(tokens)
        if edit == "comment":
            lines[i] = draw(st.sampled_from(
                (lines[i] + " # a note", "# " + lines[i], lines[i] + "#")))
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)
