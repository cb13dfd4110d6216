"""References the tests compare the engine against, and their generators.

None of this is in the package: dense matrix algebra for the
homomorphism laws, each gate's defining sum, variable renamings, point
evaluation of polynomials, the affine step's detector as a second scan,
the confluence fuzz sum as a compose fold and the renaming into it,
and random sums, circuits and instances.
"""

from hypothesis import strategies as st

from pathsum.boolpoly import BoolPoly
from pathsum.circuit import Circuit, Gate, HiddenShiftSpec, random_circuit
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
