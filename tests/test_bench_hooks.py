"""The traced benchmark wraps module-level names; they must all exist.

``perfbench.tracer.Tracer`` swaps the functions the CLI and the
simulators look up at call time for timing wrappers, and puts the
originals back afterwards.  A refactor that deletes or renames one of
those names breaks the traced benchmark; this test catches it here.
"""

import sys
from pathlib import Path

import pathsum
import pathsum.cli
import pathsum.fuzz

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import Tracer  # noqa: E402


def test_install_and_uninstall_restore_every_name():
    modules = (pathsum.cli, pathsum.sim, pathsum.rewrite, pathsum.fuzz)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer(pathsum)
    tracer.install()
    try:
        assert tracer._saved
        for module, attr, original in tracer._saved:
            assert getattr(module, attr) is not original
        c = pathsum.hidden_shift_circuit(
            pathsum.HiddenShiftSpec(n=4, shift=(1, 0, 0, 1)))
        assert pathsum.sim.recover_shift(c).shift == (1, 0, 0, 1)
        assert tracer.spans
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
