"""Limit-curve values, regime selection, and flagging rules."""

import math
import struct

import numpy as np
import pytest

from mixlab import experiments, theory_curve
from mixlab.errors import BadCurveName, BadValue, MixingLabError
from mixlab.experiments import (CURVE_NAMES, FLAG_MARGIN, GAMMA_HIGH,
                                GAMMA_LOW, pick_regime)


def test_joint_curves_frozen_values():
    assert theory_curve("joint_gamma0", 0.0) == pytest.approx(1.0)
    assert theory_curve("joint_gamma0", 1.0) == pytest.approx(
        0.36787944117144233, abs=1e-15)
    assert theory_curve("joint_gammainf", 1.0) == pytest.approx(
        0.7357588823428847, abs=1e-15)
    assert theory_curve("joint_gammainf", 0.0) == pytest.approx(1.0)
    # piecewise curve: one-refresh branch below gamma, pure decay above
    assert theory_curve("joint_general", 0.5, gamma=1.0) == pytest.approx(
        0.9097959895689501, abs=1e-15)
    assert theory_curve("joint_general", 2.0, gamma=1.0) == pytest.approx(
        0.1353352832366127, abs=1e-15)


def test_joint_general_discontinuity_uses_upper_branch():
    at_jump = theory_curve("joint_general", 1.0, gamma=1.0)
    assert at_jump == pytest.approx(math.exp(-1.0))
    just_below = theory_curve("joint_general", 1.0 - 1e-9, gamma=1.0)
    assert just_below == pytest.approx(2 * math.exp(-1.0), rel=1e-6)


def test_marginal_curves():
    assert theory_curve("marginal_gamma0", 1.0, gap=0.3) == pytest.approx(
        0.3 * math.exp(-1.0), abs=1e-15)
    assert theory_curve("marginal_gammainf", 2.0) == pytest.approx(
        math.exp(-2.0), abs=1e-15)
    # scaled step profile: full mass below the jump, gap floor above it
    low = theory_curve("marginal_general", 1.0, gamma=2.0, gap=0.25)
    assert low == pytest.approx(math.exp(-1.0), abs=1e-15)
    high = theory_curve("marginal_general", 3.0, gamma=2.0, gap=0.25)
    assert high == pytest.approx(0.25 * math.exp(-3.0), abs=1e-15)
    at_jump = theory_curve("marginal_general", 2.0, gamma=2.0, gap=0.25)
    assert at_jump == pytest.approx(0.25 * math.exp(-2.0), abs=1e-15)


def test_static_profile_step():
    assert theory_curve("static_profile", 0.99, gap=0.4) == 1.0
    assert theory_curve("static_profile", 1.0, gap=0.4) == 0.4
    assert theory_curve("static_profile", 1.5, gap=0.0) == 0.0


def test_curve_argument_validation():
    with pytest.raises(BadCurveName):
        theory_curve("no_such_curve", 1.0)
    with pytest.raises(BadValue):
        theory_curve("joint_gamma0", -0.5)
    with pytest.raises(BadValue):
        theory_curve("joint_general", 1.0)  # gamma missing
    with pytest.raises(BadValue):
        theory_curve("marginal_gamma0", 1.0)  # gap missing
    with pytest.raises(BadValue):
        theory_curve("marginal_general", 1.0, gamma=2.0)  # gap missing
    with pytest.raises(BadValue):
        theory_curve("static_profile", 1.0)  # gap missing


@pytest.mark.parametrize("args,kwargs", [
    (("static_profile", math.nan), {"gap": 0.1}),
    (("joint_gamma0", math.nan), {}),
    (("joint_gamma0", "1"), {}),
    (("joint_gamma0", None), {}),
    (("joint_gamma0", True), {}),
    (("marginal_general", 2.0), {"gamma": math.nan, "gap": 0.1}),
    (("joint_general", 0.5), {"gamma": "2"}),
    (("static_profile", 2.0), {"gap": math.nan}),
    (("marginal_gamma0", 0.5), {"gap": "0.1"}),
])
def test_nan_and_non_real_inputs_are_refused(args, kwargs):
    with pytest.raises(BadValue):
        theory_curve(*args, **kwargs)


def test_infinite_beta_stays_legal():
    assert theory_curve("joint_gamma0", math.inf) == 0.0
    assert theory_curve("static_profile", math.inf, gap=0.3) == 0.3
    assert theory_curve("marginal_general", math.inf, gamma=1.0,
                        gap=0.3) == 0.0
    # every curve is its beta -> inf limit there: the static profile's gap
    # floor, and 0 for every curve that decays
    for name in CURVE_NAMES:
        want = 0.3 if name == "static_profile" else 0.0
        assert theory_curve(name, math.inf, gamma=1.0, gap=0.3) == want, name


def test_regime_thresholds_are_strict():
    assert pick_regime(0.19) == "0"
    assert pick_regime(GAMMA_LOW) == "general"
    assert pick_regime(1.0) == "general"
    assert pick_regime(GAMMA_HIGH) == "general"
    assert pick_regime(5.01) == "inf"
    assert FLAG_MARGIN == pytest.approx(0.1)


def _seven_branch_curve(name, beta, gamma=None, gap=None):
    """The limit curves as seven hand-written branches: the oracle the
    switch table must reproduce bit for bit."""
    def phi(b, gap):
        return 1.0 if b < 1.0 else gap
    if beta < 0:
        raise BadValue(f"beta must be in [0, inf], got {beta!r}")
    decay = math.exp(-beta)
    if name == "joint_gamma0":
        return decay
    if name == "joint_gammainf":
        return (1.0 + beta) * decay if beta < math.inf else 0.0
    if name == "joint_general":
        if gamma is None or gamma <= 0:
            raise BadValue("joint_general needs gamma > 0")
        return (1.0 + beta) * decay if beta < gamma else decay
    if name == "marginal_gamma0":
        if gap is None:
            raise BadValue("marginal_gamma0 needs the stationary gap")
        return gap * decay
    if name == "marginal_gammainf":
        return decay
    if name == "marginal_general":
        if gamma is None or gamma <= 0:
            raise BadValue("marginal_general needs gamma > 0")
        if gap is None:
            raise BadValue("marginal_general needs the stationary gap")
        return phi(beta / gamma, gap) * decay
    if name == "static_profile":
        if gap is None:
            raise BadValue("static_profile needs the stationary gap")
        return phi(beta, gap)
    raise BadCurveName(f"curve must be one of {CURVE_NAMES}, got {name!r}")


def _outcome(curve, *args):
    """A curve's value as its float64 bytes, or its error type and text."""
    try:
        return struct.pack("<d", curve(*args))
    except MixingLabError as exc:
        return type(exc), str(exc)


def _around(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


GAMMAS = [0.01, GAMMA_LOW, 1.0, GAMMA_HIGH, 50.0]


@pytest.mark.parametrize("name", [*CURVE_NAMES, "no_such_curve"])
def test_switch_table_equals_the_seven_branch_curves(name):
    betas = [float(b) for x in [0.0, 1.0, *GAMMAS, math.inf] + [0.5, 3.0,
             700.0, 800.0] for b in _around(x)]
    for beta in betas:
        for gamma in [None, -1.0, 0.0, *GAMMAS]:
            for gap in [None, 0.0, 0.3]:
                args = (name, beta, gamma, gap)
                assert (_outcome(theory_curve, *args)
                        == _outcome(_seven_branch_curve, *args)), args


def _old_curve_and_jump(family, gh):
    """Curve name and jump as the experiments chose them one by one."""
    if family == "static":
        return "static_profile", 1.0
    regime = pick_regime(gh)
    suffix = {"0": "gamma0", "inf": "gammainf", "general": "general"}[regime]
    return f"{family}_{suffix}", gh if regime == "general" else None


@pytest.mark.parametrize("family", ["joint", "marginal", "static"])
def test_limit_curve_helper_keeps_each_name_and_jump(family):
    forms = {"joint": experiments._JOINT, "marginal": experiments._MARGINAL,
             "static": experiments._STATIC}[family]
    for gh in [float(g) for x in (GAMMA_LOW, 1.0, GAMMA_HIGH)
               for g in _around(x)]:
        name, switch = experiments._limit_curve(forms, gh)
        old_name, jump = _old_curve_and_jump(family, gh)
        assert name == old_name
        assert (switch if 0 < switch < math.inf else None) == jump
        # rows near the jump, and only those, are flagged
        betas = [0.05, 0.5, 1.05, gh - 0.05, gh + 0.2, 9.0]
        rows, _ = experiments._curve(betas, betas, [dict.fromkeys(betas, 0.5)],
                                     lambda b: 0.0, switch)
        assert [row.flagged for row in rows] == [
            jump is not None and abs(b - jump) < FLAG_MARGIN for b in betas]
