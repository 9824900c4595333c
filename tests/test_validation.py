"""Each public call validates its operator once, and the star-trace validity
test agrees with the 4-tensor Bianchi defect at the bound."""

import numpy as np
import pytest

from halfpic import cones, flow
from halfpic import curvature as cv
from halfpic import group_actions as ga
from halfpic import lambda2 as l2


@pytest.fixture
def validations(monkeypatch):
    # count require_bianchi_valid calls through every module that binds it
    calls = []
    original = cv.require_bianchi_valid

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (cv, cones, flow, ga):
        if getattr(mod, "require_bianchi_valid", None) is original:
            monkeypatch.setattr(mod, "require_bianchi_valid", counting)
    return calls


# scal > 0 and a negative projected self-dual margin, so a witness exists
_ELIGIBLE = cv.assemble(scal=4.0, wplus=np.diag([2.0, -0.5, -1.5]))

ONE_VALIDATION = {
    "membership": lambda r: cones.membership(r),
    "cone_margin": lambda r: cones.cone_margin(r, "ic"),
    "shift_to_margin": lambda r: cones.shift_to_margin(r, "ic_minus", 0.1),
    "decompose": lambda r: cv.decompose(r),
    "exact_projection": lambda r: ga.exact_projection(r, "right"),
    "maximality_witness": lambda r: ga.maximality_witness(_ELIGIBLE),
}


@pytest.mark.parametrize("name", sorted(ONE_VALIDATION))
def test_public_calls_validate_once(name, validations):
    r = cv.random_bianchi(np.random.default_rng(5), norm=1.0)
    ONE_VALIDATION[name](r)
    assert len(validations) == 1


def test_probe_validates_each_seed_once(validations):
    # shift_to_margin validates each generated seed; the stacked flow does not
    flow.invariance_probe("ic", n=4, seed=0)
    assert len(validations) == 4


@pytest.mark.parametrize("norm", [1.0, 1e6])
@pytest.mark.parametrize("factor,valid", [(1.001, False), (0.999, True)])
def test_star_trace_bound_matches_the_defect_route(norm, factor, valid):
    r0 = cv.random_bianchi(np.random.default_rng(6), norm=norm)
    bound = cv.BIANCHI_TOL * (1.0 + np.linalg.norm(r0))
    r = r0 + (factor * bound / 3.0) * l2.HODGE_STAR
    reference = cv.bianchi_defect(r) <= cv.BIANCHI_TOL * (1.0 + np.linalg.norm(r))
    assert reference == valid
    if valid:
        np.testing.assert_array_equal(cv.require_bianchi_valid(r), r)
    else:
        with pytest.raises(cv.OperatorFormatError, match="violates the first Bianchi identity"):
            cv.require_bianchi_valid(r)
