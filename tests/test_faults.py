"""A fault table: every gate has teeth.

Each entry makes one fault with one monkeypatch and names one fast
existing check.  The check runs twice: on the code as it stands, where
it passes, and under the fault, where it must fail.  A refactor that
renames a patched target updates its entry.
"""

import pytest

from halfwave import experiments
from halfwave.hankel import HankelTruncation

import test_experiments
import test_hankel


def _unscaled(stepped):
    """_stepped with every scale forced to 1.0: the approximation row's
    richardson column reports the rescaled discrepancy, 1/eps times the
    physical one."""
    return lambda *args, **kwargs: stepped(*args, **{**kwargs, "scale": 1.0})


#: fault -> (patched object, attribute, faulty value from the original,
#: check(monkeypatch, tmp_path, capsys) that must catch the fault)
FAULTS = {
    "approximation-richardson-rescaled": (
        experiments, "_stepped", _unscaled,
        lambda mp, tmp_path, capsys: test_experiments.TestSmallRuns()
        .test_approximation_richardson_is_in_the_physical_frame(mp)),
    "spectrum-eig-dev-top-one": (
        experiments, "_SPECTRUM_TOP", lambda top: 1,
        lambda mp, tmp_path, capsys: test_experiments.TestSmallRuns()
        .test_spectrum_eig_dev_gates_the_top_ten_eigenvalues()),
    # the check reads build_hankel from its own module, so the fault is made there
    "build-hankel-one-mode-off": (
        test_hankel, "build_hankel",
        lambda build: lambda w: HankelTruncation(w.coeff[w.grid.max_mode - 1:-1]),
        lambda mp, tmp_path, capsys: test_hankel.test_matrix_two_modes()),
    "analytic-profile-rule-no-op": (
        experiments, "_analytic_state", lambda state: experiments.build_initial_state,
        lambda mp, tmp_path, capsys: test_experiments.TestCli()
        .test_spectrum_without_a_hankel_spectrum_exits_one(
            test_experiments.MIXED_PROFILE, ["--profile", "custom", "--grid", "8"],
            "spectrum requires an analytic profile", tmp_path, capsys)),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_caught(fault, monkeypatch, tmp_path, capsys):
    """The check passes on the code as it stands and fails under the
    fault; each run has its own output directory."""
    target, name, faulty, check = FAULTS[fault]
    for run in ("clean", "faulty"):
        (tmp_path / run).mkdir()
    with monkeypatch.context() as mp:
        check(mp, tmp_path / "clean", capsys)
    with monkeypatch.context() as mp:
        mp.setattr(target, name, faulty(getattr(target, name)))
        with pytest.raises(AssertionError):
            check(mp, tmp_path / "faulty", capsys)
