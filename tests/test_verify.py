"""The property runner of ``verify``: NaN residuals fail a property, and
the falsification canary fails when the kernel it must catch is valid."""

import json
import math

import numpy as np
import pytest

import monometric.linalg
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
from monometric.channels import monotonicity_trial_each, random_channel_each
from monometric.cli import main
from monometric.sampling import random_density, random_tangent, random_unitary
from oracle_loops import random_channel_loop, same_channel
from monometric.verify import (
    CONTRACTION_DRAWS_PER_TRIAL,
    _contraction_worst,
    _draw_channel,
    _invalid_kernel,
    _Run,
    _trial_base_states,
    run_chentsov_suite,
    run_metric_suite,
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
    def nan_trials(spec, channels, states, tangents):
        return [TrialResult(lhs=1.0, rhs=1.0, slack=math.nan) for _ in channels]

    monkeypatch.setattr(monometric.verify, "monotonicity_trial_each", nan_trials)
    spec = MetricSpec(c=BridgeMC(0.5))
    run = _Run("channels", seed=0, trials=2, dims=(2, 3), prop=3)
    assert math.isnan(_contraction_worst(run, spec, 0, 2))


def per_attempt_contraction(run, spec, variant, target_trials):
    """The attempt-by-attempt loop that the batched ``_contraction_worst``
    replaces, kept as its oracle: every attempt's tangent, the accepted
    attempts and the worst slack. Each channel is built alone, by the
    column-by-column Gram-Schmidt loop and ``KrausChannel``."""
    tangents, accepted, worst = [], [], math.inf
    attempt = 0
    while len(accepted) < target_trials:
        assert attempt < CONTRACTION_DRAWS_PER_TRIAL * target_trials
        rng = run.rng(variant, attempt)
        attempt += 1
        n = run.dims[attempt % len(run.dims)]
        channel = random_channel_loop(*_draw_channel(rng, n))
        rho = DensityMatrix.from_matrix(random_density(rng, n))
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

    def recorded_trials(spec, channels, states, tangents):
        called.extend(tangents)
        outcomes = monotonicity_trial_each(spec, channels, states, tangents)
        seen.extend(a for a, outcome in zip(tangents, outcomes) if isinstance(outcome, TrialResult))
        # a rejected draw is rejected by its image alone
        assert all(isinstance(outcome, (TrialResult, NotAState)) for outcome in outcomes)
        return outcomes

    def counted_channels(chunk):
        draws.extend(chunk)
        return random_channel_each(chunk)

    monkeypatch.setattr(monometric.verify, "monotonicity_trial_each", recorded_trials)
    monkeypatch.setattr(monometric.verify, "random_channel_each", counted_channels)
    batched = _contraction_worst(run, spec, 1, trials)
    attempt_of = {a.tobytes(): k for k, a in enumerate(tangents)}
    # every draw, rejected or not, goes through monotonicity_trial_each
    assert [attempt_of[a.tobytes()] for a in called] == list(range(len(tangents)))
    assert [attempt_of[a.tobytes()] for a in seen] == accepted
    # each attempt's channel is drawn once, and nothing past the loop's last attempt
    assert draws == [_draw_channel(run.rng(1, k), run.dims[(k + 1) % len(dims)]) for k in range(len(tangents))]
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
    assert props["contraction-bridge"].worst == pytest.approx(4.35534275311511e-10, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("seed, dims", [(42, (2, 3)), (307, (2, 3))])
def test_every_drawn_channel_is_the_one_built_alone(seed, dims, monkeypatch):
    """Each channel that ``verify --suite channels --trials 200`` draws
    through ``random_channel_each`` holds the operators of the draw built
    alone by the one-at-a-time loop, bit for bit."""
    drawn = []

    def recorded(draws):
        out = random_channel_each(draws)
        drawn.extend(zip(draws, out))
        return out

    monkeypatch.setattr(monometric.verify, "random_channel_each", recorded)
    assert run_verification("channels", 200, seed, dims).passed
    # 50 for trace-preservation, and every attempt of the contraction properties
    assert len(drawn) > 50 + 5 * 200 + 500
    for draw, channel in drawn:
        assert same_channel(channel, random_channel_loop(*draw)), draw


def test_a_channel_that_cannot_be_drawn_is_raised_at_its_attempt(monkeypatch):
    def third_gives_up(draws):
        out = random_channel_each(draws)
        out[3] = DegenerateSample("forced at the fourth attempt")
        return out

    reached = []

    def recorded_trials(spec, channels, states, tangents):
        outcomes = monotonicity_trial_each(spec, channels, states, tangents)
        assert outcomes[3] is channels[3]  # the channel error is the draw's outcome
        for outcome in outcomes:
            reached.append(outcome)
            yield outcome

    monkeypatch.setattr(monometric.verify, "random_channel_each", third_gives_up)
    monkeypatch.setattr(monometric.verify, "monotonicity_trial_each", recorded_trials)
    run = _Run("channels", seed=5, trials=10, dims=(2, 3), prop=3)
    with pytest.raises(DegenerateSample, match="fourth attempt"):
        _contraction_worst(run, MetricSpec(c=BridgeMC(0.5)), 0, 10)
    # the attempts before it ran, then the loop stopped at its own
    assert len(reached) == 4
    assert all(isinstance(outcome, (TrialResult, NotAState)) for outcome in reached[:3])


@pytest.mark.parametrize("bad", (0, 3))
def test_a_state_that_is_not_one_is_raised_at_its_attempt_not_rejected(bad, monkeypatch):
    """Only an image state is a rejected draw: a draw whose own state fails
    validation raises its NotAState when its attempt is reached, after a
    channel error of the same draw."""
    drawn = []

    def trace_two_at_bad(rng, n):
        drawn.append(n)
        m = random_density(rng, n)
        return 2.0 * m if len(drawn) - 1 == bad else m

    monkeypatch.setattr(monometric.verify, "random_density", trace_two_at_bad)
    run = _Run("channels", seed=5, trials=10, dims=(2, 3), prop=3)
    with pytest.raises(NotAState, match="trace"):
        _contraction_worst(run, MetricSpec(c=BridgeMC(0.5)), 0, 10)
    drawn.clear()

    def gives_up_at_bad(draws):
        out = random_channel_each(draws)
        out[bad] = DegenerateSample("forced at the bad attempt")
        return out

    monkeypatch.setattr(monometric.verify, "random_channel_each", gives_up_at_bad)
    with pytest.raises(DegenerateSample, match="bad attempt"):
        _contraction_worst(run, MetricSpec(c=BridgeMC(0.5)), 0, 10)


def test_a_degenerate_unitary_is_raised_when_its_trial_is_reached(monkeypatch):
    real = monometric.verify.ginibre
    calls = []

    def collapsed_fourth(rng, rows, cols):
        g = real(rng, rows, cols)
        calls.append(rows)
        if len(calls) == 4:
            g[:, 1] = g[:, 0]
        return g

    monkeypatch.setattr(monometric.verify, "ginibre", collapsed_fourth)
    names = [entry[0] for entry in monometric.verify._SUITES["channels"]]
    run = _Run("channels", seed=1, trials=8, dims=(2, 3), prop=names.index("unitary-equality"))
    residuals = monometric.verify._unitary_equality(run)
    for _ in range(3):
        assert next(residuals) <= 1e-9
    with pytest.raises(DegenerateSample, match="column 1"):
        next(residuals)
    assert len(calls) == 8  # every trial was drawn first


ROTATIONS = {"unitary-covariance": lambda rng: bool(rng.integers(0, 2)), "basis-independence": lambda rng: True}


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_metric_unitaries_are_one_stack_and_the_per_trial_loop(name, monkeypatch):
    """Each trial's unitary, orthonormalized in one stack, is the one a
    trial-by-trial ``random_unitary`` draws after the trial's tangent."""
    names = [entry[0] for entry in monometric.verify._SUITES["metric"]]
    run = _Run("metric", seed=42, trials=30, dims=(2, 3, 5), prop=names.index(name))
    draw = monometric.verify._diagonal_density if name == "basis-independence" else random_density
    loop = []
    for rng, n, rho in _trial_base_states(run, run.trials, draw):
        a = random_tangent(rng, n, hermitian=ROTATIONS[name](rng))
        loop.append(monometric.verify._rotation_residual(rho, a, random_unitary(rng, n)))
    stacks = []
    each = monometric.verify.orthonormal_columns_each
    monkeypatch.setattr(monometric.verify, "orthonormal_columns_each", lambda gs: stacks.append(gs) or each(gs))
    residuals = monometric.verify._SUITES["metric"][run.prop][3](run)
    assert [r.hex() for r in residuals] == [r.hex() for r in loop]
    assert len(stacks) == 1


def test_a_degenerate_metric_unitary_is_raised_when_its_trial_is_reached(monkeypatch):
    real = monometric.verify.ginibre
    calls = []

    def collapsed_fourth(rng, rows, cols):
        g = real(rng, rows, cols)
        calls.append(rows)
        if len(calls) == 4:
            g[:, 1] = g[:, 0]
        return g

    monkeypatch.setattr(monometric.verify, "ginibre", collapsed_fourth)
    names = [entry[0] for entry in monometric.verify._SUITES["metric"]]
    run = _Run("metric", seed=1, trials=8, dims=(2, 3), prop=names.index("unitary-covariance"))
    residuals = monometric.verify._unitary_covariance(run)
    for _ in range(3):
        assert next(residuals) <= 1e-9
    with pytest.raises(DegenerateSample, match="column 1"):
        next(residuals)
    assert len(calls) == 8  # every trial was drawn first


def test_image_states_are_held_to_the_trial_floor():
    identity = KrausChannel(operators=(np.eye(2, dtype=complex),))
    rho = np.diag([1.0 - 1e-9, 1e-9]).astype(complex)  # above the state floor only
    spec = MetricSpec(c=BridgeMC(0.5))
    with pytest.raises(NotAState, match="floor 1.0e-08") as alone:
        monotonicity_trial(spec, identity, rho, np.eye(2))
    state = DensityMatrix.from_matrix(rho)
    for given in (*DensityMatrix.from_matrices([rho]), state):
        (image,) = monotonicity_trial_each(spec, [identity], [given], [np.eye(2)])
        assert isinstance(image, NotAState)
        assert str(image) == str(alone.value)
    # the same state clears the floor under a channel that mixes it
    mixing = KrausChannel(operators=(np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * np.eye(2)[::-1]))
    (result,) = monotonicity_trial_each(spec, [mixing], [state], [np.eye(2)])
    assert isinstance(result, TrialResult)


def test_an_image_that_does_not_converge_is_raised_at_its_draw(monkeypatch):
    # after one sweep the diagonal state is done and its rotated image is not
    monkeypatch.setattr(monometric.linalg, "MAX_SWEEPS", 1)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    rotate = KrausChannel(operators=(random_unitary(np.random.default_rng(5), 3),))
    spec = MetricSpec(c=BridgeMC(0.5))
    state = DensityMatrix.from_matrix(rho)
    (image,) = monotonicity_trial_each(spec, [rotate], [state], [np.eye(3)])
    assert isinstance(image, NoConvergence)
    with pytest.raises(NoConvergence) as raised:
        monotonicity_trial(spec, rotate, state, np.eye(3))
    assert str(raised.value) == str(image)
    # in a contraction run it is raised, not taken for a rejected draw
    monkeypatch.setattr(monometric.verify, "monotonicity_trial_each", lambda *args: [image] * len(args[1]))
    run = _Run("channels", seed=5, trials=3, dims=(2, 3), prop=3)
    with pytest.raises(NoConvergence):
        _contraction_worst(run, spec, 0, 3)


def test_a_draw_that_does_not_converge_leaves_the_stack_to_the_others(monkeypatch):
    # after one sweep the diagonal states and their images are done, and the
    # rotated image of one draw is not
    monkeypatch.setattr(monometric.linalg, "MAX_SWEEPS", 1)
    calls = []
    stack_way = monometric.linalg._jacobi_stack
    monkeypatch.setattr(
        monometric.linalg, "_jacobi_stack", lambda a, *limits: calls.append(len(a)) or stack_way(a, *limits)
    )
    count = monometric.linalg.SMALL_STACK // 2
    rhos = [np.diag([0.5 - 0.01 * k, 0.5 + 0.01 * k]).astype(complex) for k in range(count)]
    rng = np.random.default_rng(11)
    tangents = [random_tangent(rng, 2, hermitian=bool(k % 2)) for k in range(count)]
    identity = KrausChannel(operators=(np.eye(2, dtype=complex),))
    rotate = KrausChannel(operators=(random_unitary(np.random.default_rng(7), 2),))
    channels = [rotate if k == 5 else identity for k in range(count)]
    spec = MetricSpec(c=BridgeMC(0.5))
    out = monotonicity_trial_each(spec, channels, DensityMatrix.from_matrices(rhos), tangents)
    assert calls == [count, count]  # the states, then the images, the stuck one among them
    assert isinstance(out[5], NoConvergence)
    for channel, rho, a, outcome in zip(channels, rhos, tangents, out):
        if outcome is out[5]:
            with pytest.raises(NoConvergence) as raised:
                monotonicity_trial(spec, channel, rho, a)
            assert str(raised.value) == str(outcome)
        else:
            alone = monotonicity_trial(spec, channel, rho, a)
            assert [outcome.lhs.hex(), outcome.rhs.hex()] == [alone.lhs.hex(), alone.rhs.hex()]


def one_by_one(cls, ms, floor=monometric.metric.STATE_EIG_FLOOR):
    """``DensityMatrix.from_matrices`` as a loop of ``from_matrix``."""
    out = []
    for m in ms:
        try:
            out.append(cls.from_matrix(m, floor))
        except NotAState as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("trials, dims, seed", [(30, (2, 3), 42), (9, (2, 3, 5), 5)])
def test_metric_suite_with_stacked_states_is_the_one_by_one_loop(trials, dims, seed, monkeypatch):
    stacked = run_metric_suite(trials, dims, seed)
    monkeypatch.setattr(DensityMatrix, "from_matrices", classmethod(one_by_one))
    assert run_metric_suite(trials, dims, seed) == stacked


def test_metric_suite_diagonalizes_base_states_as_stacks(monkeypatch):
    """One ``hermitian_eig`` per rotated and perturbed state only: the
    seven properties' base states go through stacks."""
    calls = []
    eig = monometric.metric.hermitian_eig
    monkeypatch.setattr(monometric.metric, "hermitian_eig", lambda m: calls.append(m) or eig(m))
    trials = 30
    assert run_metric_suite(trials, (2, 3), 42).passed
    # unitary-covariance and basis-independence rotate each state, and
    # continuity-smoke perturbs each of its states
    assert len(calls) == 2 * trials + min(trials, 20)


@pytest.mark.parametrize("bad_trial", (0, 3, 6))
def test_a_trial_state_is_rejected_when_its_trial_is_reached(bad_trial):
    drawn = []

    def draw(rng, n):
        drawn.append(n)
        m = random_density(rng, n)
        return 2.0 * m if len(drawn) - 1 == bad_trial else m  # trace 2

    run = _Run("metric", seed=3, trials=7, dims=(2, 3))
    reached = []
    with pytest.raises(NotAState, match="trace"):
        for _, n, _ in _trial_base_states(run, 7, draw):
            reached.append(n)
    assert len(drawn) == 7
    assert reached == [run.dims[k % 2] for k in range(bad_trial)]


def test_a_trial_state_that_does_not_converge_is_raised_when_its_trial_is_reached(monkeypatch):
    # after one sweep a diagonal state is done and a dense one is not
    monkeypatch.setattr(monometric.linalg, "MAX_SWEEPS", 1)
    drawn = []

    def draw(rng, n):
        drawn.append(n)
        m = random_density(rng, n)
        return m if len(drawn) == 4 else np.diag(np.diag(m))

    run = _Run("metric", seed=3, trials=7, dims=(2, 3))
    reached = []
    with pytest.raises(NoConvergence):
        for _, n, _ in _trial_base_states(run, 7, draw):
            reached.append(n)
    assert len(drawn) == 7
    assert reached == [2, 3, 2]


def test_base_states_diagonalized_as_stacks_are_what_they_are_alone(monkeypatch):
    calls = []
    stack_way = monometric.linalg._jacobi_stack
    monkeypatch.setattr(
        monometric.linalg, "_jacobi_stack", lambda a, *limits: calls.append(len(a)) or stack_way(a, *limits)
    )
    trials = monometric.linalg.SMALL_STACK  # half of them 2x2: a stack of B n = SMALL_STACK
    run = _Run("metric", seed=3, trials=trials, dims=(2, 3))
    stacked = list(_trial_base_states(run, trials))
    assert calls == [trials // 2, trials // 2]  # one stack per dimension
    assert [n for _, n, _ in stacked] == [run.dims[k % 2] for k in range(trials)]
    for _, _, state in stacked:
        alone = DensityMatrix.from_matrix(state.matrix)
        assert np.array_equal(alone.eig.eigenvalues, state.eig.eigenvalues)
        assert np.array_equal(alone.eig.eigenvectors, state.eig.eigenvectors)


def test_rejecting_every_image_still_hits_the_draw_cap(monkeypatch):
    draws = []

    def counted_channels(chunk):
        draws.extend(chunk)
        return random_channel_each(chunk)

    monkeypatch.setattr(monometric.channels, "TRIAL_STATE_FLOOR", 1.0)
    monkeypatch.setattr(monometric.verify, "random_channel_each", counted_channels)
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
        {"suite": "metric", "trials": 2.5},
        {"suite": "metric", "trials": 1, "dims": (2.5,)},
        {"suite": "metric", "trials": 1, "dims": ("2",)},
        {"suite": "metric", "trials": 1, "dims": (2.7,)},
    ],
    ids=["unknown-suite", "no-trials", "no-dims", "dim-9", "fractional-trials", "half-dim", "string-dim", "fractional-dim"],
)
def test_run_verification_rejects_bad_arguments(kwargs):
    with pytest.raises(DomainError):
        run_verification(seed=0, **kwargs)
