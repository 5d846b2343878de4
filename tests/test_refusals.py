"""Every scalar wrapper names a refused lane from core.REFUSALS: one lane per status that it can raise."""

import numpy as np
import pytest

from flipq import (BasePoint, BlowupPoint, DegenerateBranch, FiberPoint, NotStable, OnCenter, OutOfDomain,
                   StabilityClass, chi_eval, classify, cstar_act_blowup, extract_graph, kernels, matching_map,
                   normalize_to_level, phi_graph, presets, quotient_chart, renorm_eval, solve_rho, solve_rho_blowup,
                   taylor_rest, to_blowup)
from flipq.config_io import build_model


def _config():
    # quartic_config(epsilon=0.05) with a g1^2 term whose coefficient 1 - cos(theta) is 2 at theta = pi, so
    # that a lane there can have y'' = 0 with chi(v) >= 0: identity metrics, domain_radius 0.8
    doc = presets.quartic_config(epsilon=0.05)
    doc["perturbation"]["terms"].append({"generators": {"norm_prime_sq": 2}, "coeff_fourier": [1.0, -1.0]})
    return build_model(doc)


CFG = _config()

# one lane (theta, y', y'', t) per refusal
LANES = {
    "zero section": (0.0, 0.0, 0.0, 0.0),
    "lost digits": (0.0, 0.6e-155, 0.8e-155, 0.0),
    "no root": (np.pi, 0.52, 0.0, 0.01),
    "outside the domain": (0.0, 0.72, 0.96, 0.0),
    "off the wall": (0.0, 0.6, 0.1, 0.0),
}

ZERO = "y lies on the zero section"
LOST = "|y|^2 = 1e-310 is below the smallest normal float: its digits are lost"
DOMAIN = "|v| = 1.2 exceeds domain_radius = 0.8"

WRAPPERS = {
    # polar
    "to_blowup": lambda p: to_blowup(CFG, p),
    "cstar_act_blowup": lambda p: cstar_act_blowup(CFG, 2.0, BlowupPoint(1.0, p.y_prime, p.y_second, p.base)),
    # level
    "normalize_to_level": lambda p: normalize_to_level(CFG, p),
    "quotient_chart": lambda p: quotient_chart(CFG, p),
    # rescaling: the fiber domain of chi, then matching
    "chi_eval": lambda p: chi_eval(CFG, p),
    "taylor_rest": lambda p: taylor_rest(CFG, p),
    "extract_graph": lambda p: extract_graph(CFG, phi_graph(CFG), p),
    # the ray point v = r w with r = 1.2 and w = v / |v|
    "renorm_eval": lambda p: renorm_eval(CFG, CFG.perturbation, 4, 1.2, p.y_prime / 1.2, p.y_second / 1.2),
    "matching_map": lambda p: matching_map(CFG, p),
    "solve_rho": lambda p: solve_rho(CFG, p),
    "solve_rho_blowup": lambda p: solve_rho_blowup(CFG, BlowupPoint(1.0, p.y_prime, p.y_second, p.base)),
}

# (wrapper, lane) -> the error class and text it must raise; a BlowupPoint refuses a zero direction itself
CASES = {
    ("to_blowup", "zero section"): (OnCenter, ZERO),
    ("to_blowup", "lost digits"): (OnCenter, LOST),
    ("cstar_act_blowup", "lost digits"): (OnCenter, LOST),
    ("normalize_to_level", "zero section"): (NotStable, ZERO),
    ("normalize_to_level", "lost digits"): (NotStable, LOST),
    ("normalize_to_level", "no root"): (NotStable,
                                        "no positive rescaling reaches the zero level: |y''|^2 = 0 and t = 0.01 >= 0"),
    ("quotient_chart", "zero section"): (NotStable, ZERO),
    ("quotient_chart", "lost digits"): (NotStable, LOST),
    ("quotient_chart", "no root"): (NotStable,
                                    "no positive rescaling reaches the zero level: |y''|^2 = 0 and t = 0.01 >= 0"),
    ("chi_eval", "outside the domain"): (OutOfDomain, DOMAIN),
    ("taylor_rest", "outside the domain"): (OutOfDomain, DOMAIN),
    ("extract_graph", "outside the domain"): (OutOfDomain, DOMAIN),
    ("renorm_eval", "outside the domain"): (OutOfDomain, DOMAIN),
    **{(matcher, lane): refusal for matcher in ("matching_map", "solve_rho", "solve_rho_blowup")
       for lane, refusal in (
           ("zero section", (DegenerateBranch, ZERO)),
           ("lost digits", (DegenerateBranch, LOST)),
           ("no root", (DegenerateBranch,
                        "no positive rescaling reaches the zero level: |y''|^2 = 0 and t = 0.0110323 >= 0")),
           ("outside the domain", (OutOfDomain, DOMAIN)),
           ("off the wall", (OutOfDomain, "graph value t = -0.17464 leaves the wall interval (+-0.05)")))
       if (matcher, lane) != ("solve_rho_blowup", "zero section")},
}


def _point(lane):
    theta, y_prime, y_second, t = LANES[lane]
    return FiberPoint(BasePoint(theta, t), [y_prime], [y_second])


@pytest.mark.parametrize("wrapper, lane", list(CASES))
def test_each_scalar_wrapper_raises_the_table_error_of_each_status(wrapper, lane):
    cls, text = CASES[wrapper, lane]
    with pytest.raises(cls) as got:
        WRAPPERS[wrapper](_point(lane))
    assert type(got.value) is cls and str(got.value) == text


@pytest.mark.parametrize("status", [kernels.STATUS_LOST_DIGITS, kernels.STATUS_NO_POSITIVE_ROOT])
def test_the_level_wrappers_decide_from_the_root_status_alone(monkeypatch, status):
    # classify, normalize_to_level and quotient_chart read kernels.root_status, not the root: a status that
    # refuses a lane with a finite root refuses it in all three, with the text of that status
    p = FiberPoint(BasePoint(0.0, 0.0), [0.6], [0.8])
    assert classify(CFG, p) is StabilityClass.Stable
    monkeypatch.setattr(kernels, "root_status", lambda ap, app, root: np.full(np.shape(root), status))
    assert classify(CFG, p) is StabilityClass.Unstable
    text = {kernels.STATUS_LOST_DIGITS: "|y|^2 = 1 is below the smallest normal float: its digits are lost",
            kernels.STATUS_NO_POSITIVE_ROOT: "no positive rescaling reaches the zero level"}[status]
    for wrapper in (normalize_to_level, quotient_chart):
        with pytest.raises(NotStable) as got:
            wrapper(CFG, p)
        assert str(got.value) == text
