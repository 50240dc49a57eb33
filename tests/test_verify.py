"""The property runner of ``verify``: NaN residuals fail a property, and
the falsification canary fails when the kernel it must catch is valid."""

import json
import math

import pytest

import monometric.verify
from monometric import BridgeMC, DomainError, MetricSpec, TrialResult, eval_bridge
from monometric.cli import main
from monometric.verify import (
    _contraction_worst,
    _Run,
    run_chentsov_suite,
    run_monotone_suite,
    run_verification,
)


def test_nan_bridge_values_fail_the_properties_they_enter(monkeypatch):
    monkeypatch.setattr(monometric.verify, "eval_bridge", lambda g, x, y: math.nan)
    report = run_chentsov_suite(20, (2, 3), 1)
    props = {p.name: p for p in report.properties}
    names = ("bridge-log-affinity", "bridge-ordering", "from-f-roundtrip", "canonical-vs-bridge")
    for name in names:
        assert not props[name].passed, name
        assert math.isnan(props[name].worst), name
    assert props["mc-axioms-bridge"].passed
    assert not report.passed


def test_nan_slack_makes_the_contraction_worst_nan(monkeypatch):
    nan_trial = lambda *args: TrialResult(lhs=1.0, rhs=1.0, slack=math.nan)  # noqa: E731
    monkeypatch.setattr(monometric.verify, "monotonicity_trial", nan_trial)
    spec = MetricSpec(c=BridgeMC(0.5))
    run = _Run("channels", seed=0, trials=2, dims=(2, 3), prop=3)
    assert math.isnan(_contraction_worst(run, spec, 0, 2))


def test_valid_kernel_fails_the_falsification_canary(capsys, monkeypatch):
    valid = lambda x, y: eval_bridge(0.5, x, y)  # noqa: E731
    monkeypatch.setattr(monometric.verify, "_invalid_kernel", valid)
    assert main(["verify", "--suite", "channels", "--trials", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = [p["name"] for p in report["suites"][0]["properties"] if not p["passed"]]
    assert failing == ["falsification-power"]


def test_nan_monotone_function_fails_operator_monotonicity(capsys, monkeypatch):
    monkeypatch.setattr(monometric.verify, "GammaFamily", lambda g: (lambda t: math.nan))
    props = {p.name: p for p in run_monotone_suite(4, (2, 3), 0).properties}
    assert not props["operator-monotonicity"].passed
    assert math.isnan(props["operator-monotonicity"].worst)
    assert main(["verify", "--suite", "monotone", "--trials", "4"]) == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"suite": "bogus", "trials": 1},
        {"suite": "metric", "trials": 0},
        {"suite": "metric", "trials": 1, "dims": ()},
        {"suite": "metric", "trials": 1, "dims": (2, 9)},
    ],
    ids=["unknown-suite", "no-trials", "no-dims", "dim-9"],
)
def test_run_verification_rejects_bad_arguments(kwargs):
    with pytest.raises(DomainError):
        run_verification(seed=0, **kwargs)
