"""Each parameter family's value object and its free evaluator agree.

``Family(p)(x)`` and ``eval_*(p, x)`` must give the same bits, or both
raise DomainError, on every input of an edge grid: NaN, +-inf, zero,
negative values, out-of-range parameters and empty atoms. Each family
checks its parameters when built and its arguments when called.
"""

import itertools
import math
import struct

import pytest

from monometric import (
    BridgeMC,
    CanonicalMC,
    CanonicalMonotone,
    DomainError,
    ExpOrderFunction,
    GammaFamily,
    KuboAndo,
    WeightFunction,
    eval_bridge,
    eval_canonical_c,
    eval_canonical_f,
    eval_exp_order,
    eval_gamma_family,
    eval_kubo_ando,
)

EDGE = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 0.5, 1.0, 2.0, 1e300)
WEIGHTS = (
    WeightFunction((0.0, 1.0), (0.0,)),
    WeightFunction((0.0, 1.0), (1.0,)),
    WeightFunction((0.0, 0.3, 1.0), (0.25, 0.75)),
)
# no atoms; locations outside [0, inf]; weights outside (0, inf)
BAD_ATOMS = (
    (),
    ((math.nan, 1.0),),
    ((-math.inf, 1.0),),
    ((-1.0, 1.0),),
    ((1.0, 0.0),),
    ((1.0, -1.0),),
    ((1.0, math.inf),),
    ((1.0, math.nan),),
)
ATOMS = (((1.0, 1.0),), ((0.0, 0.5), (math.inf, 0.5)), ((0.5, 0.3), (2.0, 0.7))) + BAD_ATOMS

# family name: (object built from params and called on args, free evaluator, cases)
FAMILIES = {
    "gamma": (
        lambda g, t: GammaFamily(g)(t),
        eval_gamma_family,
        list(itertools.product(EDGE, EDGE)),
    ),
    "canonical-f": (
        lambda beta, h, t: CanonicalMonotone(beta, h)(t),
        eval_canonical_f,
        list(itertools.product(EDGE, WEIGHTS, EDGE)),
    ),
    "exp-order": (
        lambda beta, h, x: ExpOrderFunction(beta, h)(x),
        lambda beta, h, x: eval_exp_order(ExpOrderFunction(beta, h), x),
        list(itertools.product(EDGE, WEIGHTS, EDGE)),
    ),
    "kubo-ando": (
        lambda atoms, t: KuboAndo(atoms)(t),
        eval_kubo_ando,
        list(itertools.product(ATOMS, EDGE)),
    ),
    "bridge": (
        lambda g, x, y: BridgeMC(g)(x, y),
        eval_bridge,
        list(itertools.product(EDGE, EDGE, EDGE)),
    ),
    "canonical-c": (
        lambda c0, h, x, y: CanonicalMC(c0, h)(x, y),
        eval_canonical_c,
        list(itertools.product(EDGE, WEIGHTS, EDGE, EDGE)),
    ),
}


def outcome(fn, args):
    """The bits of fn(*args), or the exception type it raised. A value
    too large for a float, from finite parameters, raises DomainError."""
    try:
        return struct.pack("<d", fn(*args))
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_object_and_free_evaluator_agree(family):
    build, free, cases = FAMILIES[family]
    raised = 0
    for args in cases:
        expected = outcome(build, args)
        assert outcome(free, args) == expected, args
        raised += expected is DomainError
    # the grid reaches both sides of every check
    assert 0 < raised < len(cases)


H = WEIGHTS[2]
BAD_PARAMETERS = {
    "gamma": (GammaFamily, (-0.1, 1.1, math.nan, math.inf, -math.inf)),
    "bridge": (BridgeMC, (-0.1, 1.1, math.nan, math.inf, -math.inf)),
    "canonical-f shift": (lambda beta: CanonicalMonotone(beta, H), (math.nan, math.inf, -math.inf)),
    "canonical-c scale": (lambda c0: CanonicalMC(c0, H), (0.0, -0.0, -1.0, math.nan, math.inf)),
    "kubo-ando": (KuboAndo, BAD_ATOMS),
}


@pytest.mark.parametrize("family", list(BAD_PARAMETERS))
def test_family_parameters_are_checked_at_construction(family):
    build, bad = BAD_PARAMETERS[family]
    for p in bad:
        with pytest.raises(DomainError):
            build(p)


OBJECTS = {
    "gamma": (GammaFamily(0.5), 1),
    "canonical-f": (CanonicalMonotone(0.0, H), 1),
    "kubo-ando": (KuboAndo(((1.0, 1.0),)), 1),
    "bridge": (BridgeMC(0.5), 2),
    "canonical-c": (CanonicalMC(2.0, H), 2),
}


@pytest.mark.parametrize("family", list(OBJECTS))
def test_family_arguments_are_checked_at_the_call(family):
    obj, arity = OBJECTS[family]
    values = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 2.0)
    for args in itertools.product(values, repeat=arity):
        if all(a == 2.0 for a in args):
            assert math.isfinite(obj(*args))
        else:
            with pytest.raises(DomainError):
                obj(*args)
