"""The property runner of ``verify``: NaN residuals fail a property, and
the falsification canary fails when the kernel it must catch is valid."""

import json
import math

import numpy as np
import pytest

import monometric.metric
import monometric.verify
from monometric import (
    BridgeMC,
    DegenerateSample,
    DensityMatrix,
    DomainError,
    KrausChannel,
    MetricSpec,
    NoConvergence,
    NotAState,
    TrialResult,
    eval_bridge,
    monotonicity_trial,
)
from monometric.cli import main
from monometric.sampling import random_tangent
from monometric.verify import (
    CONTRACTION_DRAWS_PER_TRIAL,
    _contraction_worst,
    _draw_channel,
    _draw_state,
    _invalid_kernel,
    _Run,
    _trial_states,
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


def per_attempt_contraction(run, spec, variant, target_trials):
    """The attempt-by-attempt loop that the batched ``_contraction_worst``
    replaces, kept as its oracle: every attempt's tangent, the accepted
    attempts and the worst slack."""
    tangents, accepted, worst = [], [], math.inf
    attempt = 0
    while len(accepted) < target_trials:
        assert attempt < CONTRACTION_DRAWS_PER_TRIAL * target_trials
        rng = run.rng(variant, attempt)
        attempt += 1
        n = run.dims[attempt % len(run.dims)]
        channel = _draw_channel(rng, n)
        rho = _draw_state(rng, n)
        a = random_tangent(rng, n, hermitian=bool(rng.integers(0, 2)))
        tangents.append(a)
        try:
            result = monotonicity_trial(spec, channel, rho, a)
        except NotAState:
            continue
        accepted.append(attempt - 1)
        worst = min(worst, result.slack)
    return tangents, accepted, worst


@pytest.mark.parametrize(
    "spec, dims, trials",
    [
        (MetricSpec(c=BridgeMC(0.5)), (2, 3), 40),
        (MetricSpec(c=BridgeMC(0.0)), (2, 3, 4), 25),
        (MetricSpec(c=_invalid_kernel), (3, 2), 30),
    ],
    ids=["bridge", "bures-dims-2-4", "invalid-kernel"],
)
def test_batched_contraction_matches_the_per_attempt_loop(spec, dims, trials, monkeypatch):
    run = _Run("channels", seed=5, trials=trials, dims=dims, prop=3)
    tangents, accepted, worst = per_attempt_contraction(run, spec, 1, trials)
    assert len(tangents) > len(accepted)  # some draws were rejected
    called, seen = [], []
    draws = []

    def recorded_trial(spec, channel, rho, a, *image):
        called.append(a)
        result = monotonicity_trial(spec, channel, rho, a, *image)
        seen.append(a)
        return result

    def counted_channel(rng, n):
        draws.append(n)
        return _draw_channel(rng, n)

    monkeypatch.setattr(monometric.verify, "monotonicity_trial", recorded_trial)
    monkeypatch.setattr(monometric.verify, "_draw_channel", counted_channel)
    batched = _contraction_worst(run, spec, 1, trials)
    attempt_of = {a.tobytes(): k for k, a in enumerate(tangents)}
    # every draw, rejected or not, goes through monotonicity_trial
    assert [attempt_of[a.tobytes()] for a in called] == list(range(len(tangents)))
    assert [attempt_of[a.tobytes()] for a in seen] == accepted
    assert len(draws) == len(tangents)  # nothing drawn past the loop's last attempt
    # stack members are diagonalized bit for bit as one by one
    assert batched == worst


def test_contraction_at_seed_307_is_the_per_attempt_loop():
    """At this seed one contraction-bridge trial has slack -4.4e-10 against
    the 1e-9 tolerance; a stack solver that rounds differently from the
    scalar way pushed it past the tolerance."""
    names = [entry[0] for entry in monometric.verify._SUITES["channels"]]
    prop = names.index("contraction-bridge")
    run = _Run("channels", seed=307, trials=200, dims=(2, 3), prop=prop)
    for variant, g in enumerate((0.0, 0.5, 1.0)):
        spec = MetricSpec(c=BridgeMC(g))
        _, _, worst = per_attempt_contraction(run, spec, variant, 200)
        assert _contraction_worst(run, spec, variant, 200) == worst
    props = {p.name: p for p in run_verification("channels", 200, 307, (2, 3)).suites[0].properties}
    assert props["contraction-bridge"].passed
    assert props["contraction-bridge"].worst == pytest.approx(4.35534275311511e-10, rel=1e-6)


def test_image_states_are_held_to_the_trial_floor():
    identity = KrausChannel(operators=(np.eye(2, dtype=complex),))
    rho = np.diag([1.0 - 1e-9, 1e-9]).astype(complex)  # above the state floor only
    with pytest.raises(NotAState):
        monotonicity_trial(MetricSpec(c=BridgeMC(0.5)), identity, rho, np.eye(2))
    ((state, image),) = _trial_states([identity], [rho])
    assert isinstance(state, DensityMatrix)
    assert isinstance(image, NotAState)
    with pytest.raises(NotAState) as raised:
        monotonicity_trial(MetricSpec(c=BridgeMC(0.5)), identity, state, np.eye(2), image)
    assert raised.value is image


def test_a_stack_that_does_not_converge_is_redone_draw_by_draw(monkeypatch):
    rhos = [np.diag([0.5, 0.5]).astype(complex), np.diag([0.25, 0.75]).astype(complex)]
    identity = KrausChannel(operators=(np.eye(2, dtype=complex),))

    def no_convergence(ms):
        raise NoConvergence("stack")

    monkeypatch.setattr(monometric.metric, "hermitian_eig_stack", no_convergence)
    out = list(_trial_states([identity, identity], rhos))
    assert [state.matrix.tolist() for state, _ in out] == [r.tolist() for r in rhos]
    assert [image for _, image in out] == [None, None]


def test_rejecting_every_image_still_hits_the_draw_cap(monkeypatch):
    draws = []

    def counted_channel(rng, n):
        draws.append(n)
        return _draw_channel(rng, n)

    monkeypatch.setattr(monometric.verify, "TRIAL_STATE_FLOOR", 1.0)
    monkeypatch.setattr(monometric.verify, "_draw_channel", counted_channel)
    run = _Run("channels", seed=0, trials=3, dims=(2, 3), prop=3)
    with pytest.raises(DegenerateSample, match="0 of 3"):
        _contraction_worst(run, MetricSpec(c=BridgeMC(0.5)), 0, 3)
    assert len(draws) == CONTRACTION_DRAWS_PER_TRIAL * 3


def test_valid_kernel_fails_the_falsification_canary(capsys, monkeypatch):
    valid = lambda x, y: eval_bridge(0.5, x, y)  # noqa: E731
    monkeypatch.setattr(monometric.verify, "_invalid_kernel", valid)
    assert main(["verify", "--suite", "channels", "--trials", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = [p["name"] for p in report["suites"][0]["properties"] if not p["passed"]]
    assert failing == ["falsification-power"]


def test_the_canary_passes_only_strictly_below_its_tolerance(monkeypatch):
    table = monometric.verify._SUITES["channels"]
    (row,) = [row for row in table if row[0] == "falsification-power"]
    name, tol, direction, _ = row
    run = _Run("channels", seed=0, trials=1, dims=(2,))
    for worst, passed in ((tol, False), (2.0 * tol, True)):
        # the canary's table row alone, its residuals reduced to one value
        only = [(name, tol, direction, lambda run, w=worst: [w])]
        monkeypatch.setitem(monometric.verify._SUITES, "channels", only)
        (result,) = monometric.verify._run_suite(run).properties
        assert (result.worst, result.passed) == (worst, passed)


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
