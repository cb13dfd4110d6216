"""The package's public surface, and the README's library example."""

import importlib
import re
from pathlib import Path

import pathsum
from pathsum.boolpoly import BoolPoly
from pathsum.circuit import Circuit, Gate
from pathsum.exact import Amplitude

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "Amplitude", "BoolPoly", "Circuit", "CircuitParseError",
    "DEFAULT_MAX_EVAL_VARS", "DETERMINISTIC_FIRST", "EvalGuardError", "Gate",
    "HiddenShiftSpec", "NonDeterministicOutcomeError", "ParityError",
    "PathSum", "RewriteStep", "Rule", "ShiftResult",
    "SimulationConsistencyError", "StaleStepError", "Strategy", "VarCapError",
    "adjoint", "apply", "bra", "compose", "evaluate", "find_rewrites",
    "from_dict", "from_json", "hidden_shift_circuit", "identity", "interpret",
    "ket", "marginal_one", "measure_sim", "normalize", "parse",
    "projector_one", "random_circuit", "recover_shift", "reduce",
    "seeded_random", "serialize", "simply_equivalent", "statevector_oracle",
    "strong_sim", "tensor", "to_dict", "to_json", "zero_op",
]

#: names deleted from the package or moved to tests/support.py, by the
#: module or class that held them
GONE = {"circuit": "Volume volume random_hidden_shift_spec",
        "sim": "Probability _closed_value",
        "sums": "apply_simple_transform gate_sem Matrix _fold_gates",
        "exact": "Scalar", "boolpoly": "_assigned_mask _toggle_fold",
        "fuzz": "random_path_sum _random_poly _fold_gates _mediate",
        "rewrite": "trace_lines", "cli": "ENV_MAX_EVAL_VARS _default_max_eval_vars"}
GONE_METHODS = {BoolPoly: "of eval_at eval_mask vars", Amplitude: "from_count",
                Gate: "controls", Circuit: "__len__"}


def test_public_surface_is_pinned():
    assert sorted(pathsum.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(pathsum, name) is not None, name


def test_deleted_and_moved_names_are_gone():
    for module, names in GONE.items():
        mod = importlib.import_module("pathsum." + module)
        for name in names.split():
            assert not hasattr(pathsum, name), name
            assert not hasattr(mod, name), (module, name)
    for cls, names in GONE_METHODS.items():
        for name in names.split():
            assert not hasattr(cls, name), (cls.__name__, name)


def test_every_name_the_benchmark_reads_resolves():
    for sub in ("cli", "fuzz", "rewrite", "sim"):  # as perfbench/run.py loads
        importlib.import_module("pathsum." + sub)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for name in set(re.findall(r"\bps\.(\w+)", path.read_text())):
            assert hasattr(pathsum, name), (path.name, name)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    assert "num_vars == 0" in block and "len(trace) == 24" in block
    exec(compile(block, "README.md", "exec"), {})
