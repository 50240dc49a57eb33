"""The one batching contract: every member of a batch gets, in order, what
its one-item call gives it, bit for bit, or the error that call raises;
and ``errors._batched`` and ``errors._outcome_of``, the helpers every
batcher runs through."""

import math

import numpy as np
import pytest

import monometric.channels
import monometric.metric
from monometric import (
    BridgeMC,
    DegenerateSample,
    DensityMatrix,
    DimensionMismatch,
    DomainError,
    KrausChannel,
    MetricSpec,
    MonometricError,
    NotAState,
    TrialResult,
    apply_channel,
    hermitian_eig,
    monotonicity_trial,
    random_channel,
)
from monometric.channels import apply_channel_each, monotonicity_trial_each, random_channel_each
from monometric.errors import _batched, _outcome_of
from monometric.linalg import HermitianEigen, as_matrix, hermitian_eig_each
from monometric.sampling import orthonormal_columns, orthonormal_columns_each, random_density, random_hermitian


def bits(value):
    """A value's bits, or an error's type and message."""
    if isinstance(value, MonometricError):
        return type(value), str(value)
    if isinstance(value, HermitianEigen):
        return value.eigenvalues.tobytes(), value.eigenvectors.tobytes()
    if isinstance(value, DensityMatrix):
        return value.matrix.tobytes(), bits(value.eig)
    if isinstance(value, KrausChannel):
        return tuple(k.tobytes() for k in value.operators)
    if isinstance(value, TrialResult):
        return np.array([value.lhs, value.rhs, value.slack]).tobytes()
    return np.asarray(value).tobytes()


def is_error(outcome_bits) -> bool:
    return isinstance(outcome_bits, tuple) and isinstance(outcome_bits[0], type)


def unary(each):
    """``each`` called on the one argument of every member."""
    return lambda members: each([a for a, in members])


def alone(fn, args):
    try:
        return bits(fn(*args))
    except MonometricError as exc:
        return bits(exc)


# what numpy cannot read as a complex matrix: each member that is one
# gets its own DomainError
UNREADABLE = {
    "ragged": [[1.0, 2.0], [3.0]],
    "string": "abc",
    "dict": {"a": 1.0},
    "state": DensityMatrix.from_matrix(np.eye(2) / 2),
    "past the float range": [[10**400, 0], [0, 1]],
}


def eig_case():
    rng = np.random.default_rng(3)
    a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
    members = [
        a,
        b,
        np.zeros((2, 2, 2)),  # not a matrix
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # not Hermitian
        random_hermitian(rng, 2),
        np.zeros((2, 3)),  # not square
        np.diag([1.0, math.nan]),  # not finite
        np.zeros((0, 0)),  # empty
        np.eye(33),  # above the dimension cap
        np.full((2, 2), 1.7e308),  # an eigenvalue beyond the float range
        a,
        *UNREADABLE.values(),
        random_hermitian(rng, 3),
    ]
    return unary(hermitian_eig_each), hermitian_eig, [(m,) for m in members]


def columns_case():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 2))
    members = [
        a,
        rng.standard_normal((2, 2)),
        np.ones((2, 3)),  # more columns than rows
        np.ones((3, 2)),  # dependent columns
        rng.standard_normal((3, 2)),
        a,
        np.ones(3),  # not a matrix
        *UNREADABLE.values(),
        rng.standard_normal((3, 3)),
    ]
    return unary(orthonormal_columns_each), orthonormal_columns, [(g,) for g in members]


def channel_case():
    draws = [
        (2, 2, 2, 11),
        (3, 2, 2, 12),
        (2, 2, 0, 13),  # no operator
        (3, 2, 1, 14),  # no isometry: m k < n
        (9, 2, 5, 15),  # dimension outside the trial range
        (2, 2, 2, 16),
        (2, 2, 2, -1),  # a negative seed
        (2, 2, 1.5, 18),  # a fractional operator count
        (2, 2, 2, 11),
        (2, 2, 2, 2.5),  # a fractional seed
        (2, 3, 1, 17),
    ]
    return random_channel_each, random_channel, draws


def apply_case():
    rng = np.random.default_rng(7)
    two, three = random_channel(2, 2, 2, seed=21), random_channel(3, 2, 2, seed=22)
    x = random_density(rng, 2)
    pairs = [
        (two, x),
        (three, random_density(rng, 3)),
        (two, np.eye(3)),  # input of the wrong dimension
        (three, np.zeros((3, 3, 1))),  # input that is not a matrix
        (random_channel(2, 3, 1, seed=23), random_density(rng, 2)),
        (two, x),
        *((two, m) for m in UNREADABLE.values()),
        (two, random_density(rng, 2)),
    ]
    return (lambda pairs: apply_channel_each(*zip(*pairs))), apply_channel, pairs


def state_case():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 2)
    members = [
        rho,
        random_density(rng, 3),
        np.zeros((2, 2, 2)),  # not a matrix
        np.zeros((2, 3)),  # not square
        np.diag([0.5, math.nan]),  # not finite
        np.eye(2),  # trace two
        np.array([[0.5, 0.1], [0.2, 0.5]]),  # not Hermitian
        np.diag([1.0, 0.0]),  # on the boundary
        rho,
        *UNREADABLE.values(),
        random_density(rng, 2),
    ]
    return unary(DensityMatrix.from_matrices), DensityMatrix.from_matrix, [(m,) for m in members]


def trial_case():
    rng = np.random.default_rng(11)
    spec = MetricSpec(c=BridgeMC(0.5))
    two, three = random_channel(2, 2, 2, seed=31), random_channel(3, 2, 2, seed=32)
    identity = KrausChannel(operators=(np.eye(2, dtype=complex),))
    rho = random_density(rng, 2)

    def tangent(n):
        return random_hermitian(rng, n)

    trials = [
        (two, rho, tangent(2)),
        (three, random_density(rng, 3), tangent(3)),
        (DegenerateSample("no channel"), random_density(rng, 2), tangent(2)),  # a channel error
        (two, NotAState("rejected earlier"), tangent(2)),  # a state error passed in
        (two, 2.0 * random_density(rng, 2), tangent(2)),  # a state of trace two, rejected
        (identity, np.diag([1.0 - 1e-9, 1e-9]), tangent(2)),  # an image below the trial floor
        (two, rho, tangent(3)),  # a tangent of the wrong dimension
        (three, random_density(rng, 2), tangent(2)),  # a state of the wrong dimension for its channel
        (random_channel(2, 3, 1, seed=33), random_density(rng, 2), tangent(2)),  # a rank-deficient image
        (random_channel(2, 2, 3, seed=34), random_density(rng, 2), tangent(2)),
        (two, rho, tangent(2)),
    ]
    # each state as the batch takes it: a from_matrices outcome
    states = DensityMatrix.from_matrices([rho for _, rho, _ in trials])
    assert isinstance(states[1], DensityMatrix) and isinstance(states[4], NotAState)
    trials = [(channel, state, a) for (channel, _, a), state in zip(trials, states)]
    each = lambda trials: monotonicity_trial_each(spec, *zip(*trials))  # noqa: E731
    return each, lambda *trial: monotonicity_trial(spec, *trial), trials


CASES = {
    "hermitian_eig_each": eig_case,
    "orthonormal_columns_each": columns_case,
    "random_channel_each": channel_case,
    "apply_channel_each": apply_case,
    "from_matrices": state_case,
    "monotonicity_trial_each": trial_case,
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_every_member_gets_what_it_gets_alone_in_order(case):
    each, one, members = case()
    expected = [alone(one, args) for args in members]
    assert [bits(outcome) for outcome in each(members)] == expected
    # the mixed list holds several values and several errors
    errors = sum(map(is_error, expected))
    assert errors >= 2 and len(expected) - errors >= 3


def test_the_three_bad_members_get_their_own_error():
    """Each of these lists once raised for the whole list."""
    states = DensityMatrix.from_matrices([np.eye(2) / 2, np.zeros((2, 2, 2))])
    assert isinstance(states[0], DensityMatrix)
    assert bits(states[1]) == (DomainError, "expected a 2D matrix, got ndim=3")
    columns = orthonormal_columns_each([np.ones((2, 2)), np.ones((2, 3))])
    assert bits(columns[1]) == (DomainError, "cannot orthonormalize 3 columns in 2 rows")
    assert bits(columns[0]) == alone(orthonormal_columns, (np.ones((2, 2)),))
    c = random_channel(2, 2, 2, seed=1)
    images = apply_channel_each([c, c], [np.eye(2), np.eye(3)])
    assert images[0].tobytes() == apply_channel(c, np.eye(2)).tobytes()
    assert bits(images[1]) == alone(apply_channel, (c, np.eye(3)))
    assert isinstance(images[1], DimensionMismatch)


def test_a_bad_draw_or_non_matrix_gets_its_own_domain_error():
    """Each of these lists once raised numpy's error for the whole list."""
    channels = random_channel_each([(2, 2, 2, 1), (2, 2, 2, -1), (2, 2, 1.5, 1)])
    assert bits(channels[0]) == bits(random_channel(2, 2, 2, 1))
    assert bits(channels[1]) == (DomainError, "channel seed must be a nonnegative integer, got -1")
    assert bits(channels[2]) == (DomainError, "need a whole number of operators, at least one, got 1.5")
    with pytest.raises(DomainError, match="seed"):
        random_channel(2, 2, 2, -1)
    columns = orthonormal_columns_each([np.ones(3), np.eye(2)])
    assert bits(columns[0]) == (DomainError, "expected a 2D matrix, got ndim=1")
    assert bits(columns[1]) == alone(orthonormal_columns, (np.eye(2),))
    with pytest.raises(DomainError, match="ndim=1"):
        orthonormal_columns(np.ones(3))


@pytest.mark.parametrize("m", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_what_numpy_cannot_read_is_a_domain_error(m):
    """Each of these once raised numpy's ValueError, TypeError or
    OverflowError, for the whole list in a batch."""
    c = random_channel(2, 2, 2, seed=1)
    entries = (as_matrix, hermitian_eig, DensityMatrix.from_matrix, orthonormal_columns, lambda x: apply_channel(c, x))
    for one in entries:
        with pytest.raises(DomainError, match="^not a matrix of complex numbers: "):
            one(m)
    x = np.eye(2) / 2
    for outcomes, good in [
        (hermitian_eig_each([x, m, x]), hermitian_eig(x)),
        (DensityMatrix.from_matrices([x, m, x]), DensityMatrix.from_matrix(x)),
        (orthonormal_columns_each([x, m, x]), orthonormal_columns(x)),
        (apply_channel_each([c, c, c], [x, m, x]), apply_channel(c, x)),
    ]:
        assert isinstance(outcomes[1], DomainError)
        assert [bits(outcomes[0]), bits(outcomes[2])] == [bits(good)] * 2


def test_a_trial_batch_maps_its_states_and_tangents_in_one_call(monkeypatch):
    calls = []
    inner = monometric.channels.apply_channel_each

    def spy(channels, xs):
        calls.append((len(channels), len(xs)))
        return inner(channels, xs)

    monkeypatch.setattr(monometric.channels, "apply_channel_each", spy)
    each, one, trials = trial_case()
    each(trials)
    one(*trials[0])
    assert calls == [(2 * len(trials),) * 2, (2, 2)]
    # a channel short or over would shift the tangents onto other channels
    channels, states, tangents = zip(*trials)
    with pytest.raises(ValueError):
        monotonicity_trial_each(MetricSpec(c=BridgeMC(0.5)), channels[1:], states, tangents)


def test_an_error_in_place_of_an_item_is_its_own_outcome():
    error = NotAState("rejected earlier")
    c = random_channel(2, 2, 2, seed=1)
    assert DensityMatrix.from_matrices([error, np.eye(2) / 2])[0] is error
    assert hermitian_eig_each([np.eye(2), error])[1] is error
    assert apply_channel_each([c, error], [error, np.eye(2)]) == [error, error]
    spec = MetricSpec(c=BridgeMC(0.5))
    state = DensityMatrix.from_matrix(np.eye(2) / 2)
    assert monotonicity_trial_each(spec, [c, error], [error, state], [0, 0]) == [error, error]
    # a channel error comes before a state error of the same trial
    no_channel = DegenerateSample("no channel")
    (outcome,) = monotonicity_trial_each(spec, [no_channel], [error], [np.eye(2)])
    assert outcome is no_channel


def test_from_matrices_diagonalizes_every_passing_matrix_in_one_call(monkeypatch):
    calls = []
    inner = monometric.metric.hermitian_eig_each

    def spy(ms):
        calls.append(list(ms))
        return inner(ms)

    monkeypatch.setattr(monometric.metric, "hermitian_eig_each", spy)
    rng = np.random.default_rng(13)
    passing = [random_density(rng, n) for n in (2, 3, 2, 5, 3)]
    ms = passing[:2] + [np.eye(2)] + passing[2:]  # trace two: rejected before the eigensolve
    DensityMatrix.from_matrices(ms)
    (handed,) = calls
    matrices = [m for m in handed if not isinstance(m, MonometricError)]
    assert [m.tobytes() for m in matrices] == [m.tobytes() for m in passing]
    assert isinstance(handed[2], NotAState)


class TestBatched:
    def test_error_items_never_reach_solve_and_stay_as_they_are(self):
        error = DomainError("bad")
        seen = []

        def solve(group):
            seen.append(list(group))
            return [10 * x for x in group]

        out = _batched([1, error, 2], lambda x: 0, solve)
        assert seen == [[1, 2]]
        assert out == [10, error, 20] and out[1] is error

    def test_solve_runs_once_per_key_in_first_seen_order(self):
        calls = []

        def solve(group):
            calls.append(list(group))
            return [s.upper() for s in group]

        out = _batched(["b1", "a1", "b2", "c1", "a2"], lambda s: s[0], solve)
        assert calls == [["b1", "b2"], ["a1", "a2"], ["c1"]]
        assert out == ["B1", "A1", "B2", "C1", "A2"]

    def test_only_errors_or_nothing_never_call_solve(self):
        error = DomainError("bad")
        assert _batched([error], len, pytest.fail) == [error]
        assert _batched([], len, pytest.fail) == []

    @pytest.mark.parametrize("raised", [ValueError("boom"), DomainError("boom")])
    def test_an_exception_raised_by_solve_propagates(self, raised):
        def solve(group):
            raise raised

        with pytest.raises(type(raised), match="boom"):
            _batched([1, 2], lambda x: x, solve)

    def test_solve_must_give_one_outcome_per_item(self):
        with pytest.raises(ValueError):
            _batched([1, 2], lambda x: 0, lambda group: group[:1])


class TestOutcomeOf:
    def test_a_value_is_fn_called_on_the_arguments(self):
        assert _outcome_of(lambda x, y: x - y, 5, 3) == 2

    def test_the_first_error_argument_is_the_outcome_and_fn_never_runs(self):
        first, second = DomainError("first"), NotAState("second")
        assert _outcome_of(pytest.fail, 1, first, second) is first
        assert _outcome_of(pytest.fail, second, first) is second

    def test_an_error_fn_raises_is_the_outcome(self):
        error = DimensionMismatch("raised")

        def raises(x):
            raise error

        assert _outcome_of(raises, 1) is error

    def test_an_exception_that_is_not_an_outcome_propagates(self):
        with pytest.raises(ZeroDivisionError):
            _outcome_of(lambda x: 1 / x, 0)
