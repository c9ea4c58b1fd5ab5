import dataclasses
import math

import numpy as np
import pytest

from do_icbf import (BarrierChain, BarrierSpec, ConfigurationError,
                     DomainBox, SplitMix64, SystemModel,
                     build_constraints, check_validity, linear_rate)

from oracles import finite_diff_gradient, gradient_error, level_values

GAM = linear_rate(1.0)


def _constraint(model, spec, phi, x, u, d_hat):
    """The single constraint build_constraints assembles for a plain barrier."""
    (c,), _, _ = build_constraints(model, (spec,), None, phi, x, u, d_hat, 0.0)
    return c


def test_input_gradient_u_free_barrier(acc_scenario):
    h_x = acc_scenario.chain.levels[0]
    c = _constraint(acc_scenario.model, h_x, np.zeros(1), np.array([0.0, 10.0, 25.0]),
                    np.array([3.0]), np.zeros(1))
    assert np.array_equal(c.p_row, np.zeros(1))


def test_input_gradient_force_barrier(acc_scenario):
    h_u = acc_scenario.barriers[0]
    for u in (-100.0, 0.0, 42.0):
        c = _constraint(acc_scenario.model, h_u, np.zeros(1), np.zeros(3), np.array([u]),
                        np.zeros(1))
        assert c.p_row == pytest.approx(-2.0 * u)


def test_input_gradient_bicycle_top_level_matches_fd(bicycle_scenario):
    # against central differences of the recurrence value b2 that the same
    # assembly evaluates
    sc = bicycle_scenario
    x = sc.x0
    u = sc.u0

    def assemble(uv):
        return build_constraints(sc.model, (), sc.chain, np.zeros(1), x, uv, np.zeros(1), 0.0)

    (c,), _, _ = assemble(u)
    assert c.label == "b2"
    fd = finite_diff_gradient(lambda uv: float(assemble(uv)[1]["b2"]), u, 1e-6)
    assert abs(float(c.p_row[0])) > 0.1
    assert c.p_row[0] == pytest.approx(fd[0], rel=1e-6)


def test_safety_deficit_all_terms_vanish():
    model = SystemModel(n=1, m=1, p=1, F=lambda x, u: (0.0,),
                        ell=lambda x: np.zeros((1, 1)))
    spec = BarrierSpec(h=lambda x, u: 0.0, gamma=GAM,
                       grad_x=lambda x, u: (1.0,), grad_u=lambda x, u: (1.0,))
    c = _constraint(model, spec, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))
    assert c.deficit == 0.0
    assert c.margin == 0.0
    assert c.rhs == 0.0


def test_safety_deficit_reduces_to_undisturbed_form(acc_scenario):
    # with d_hat = 0 the deficit of the top level h_e equals the undisturbed
    # residual at its recurrence value, composed without the disturbance
    # channel (exact float equality)
    model = acc_scenario.model
    chain = acc_scenario.chain
    spec = chain.levels[1]
    rng = SplitMix64(11)
    for _ in range(50):
        x = np.array([rng.uniform(0, 100), rng.uniform(0, 25), rng.uniform(0, 60)])
        u = np.array([rng.uniform(-4000, 4000)])
        phi = np.array([rng.uniform(-1e4, 1e4)])
        (c,), values, _ = build_constraints(model, (), chain, phi, x, u, np.zeros(1), 0.0)
        gx = np.asarray(spec.grad_x(x, u), dtype=float)
        gu = np.atleast_1d(np.asarray(spec.grad_u(x, u), dtype=float))
        fx = np.asarray(model.F(x, u), dtype=float)
        q = -(float(gx @ fx) + float(gu @ phi) + spec.gamma(values["h_e"]))
        assert c.deficit == q


def test_safety_deficit_acc_term_by_term(acc_scenario):
    model = acc_scenario.model
    h_u = acc_scenario.barriers[0]
    x = np.array([0.0, 10.0, 25.0])
    u = np.array([500.0])
    phi = np.array([1000.0])
    d_hat = np.array([2.0])
    # hand substitution: grad_x = 0, grad_u = -2u, h = (mcg)^2 - u^2
    mcg = 1650.0 * 0.3 * 9.81
    expected = -((-2.0 * 500.0) * 1000.0 + (mcg * mcg - 500.0 ** 2))
    c = _constraint(model, h_u, phi, x, u, d_hat)
    assert c.deficit == pytest.approx(expected, rel=1e-14)


def test_chain_value_bicycle_initial_point(bicycle_scenario):
    chain = bicycle_scenario.chain
    model = bicycle_scenario.model
    x = np.array([15.0, 10.0, math.pi / 2, 0.5])
    u = np.zeros(1)
    zero = np.zeros(1)
    _, values, _ = build_constraints(model, (), chain, np.zeros(1), x, u, zero, 0.0)
    assert values["b0"] == pytest.approx(324.0, abs=1e-12)
    assert values["b1"] == pytest.approx(74.8, abs=1e-10)  # 0 + 10 + 0.2 * 324


def test_chain_value_fixed_point_is_zero():
    model = SystemModel(n=2, m=1, p=1, F=lambda x, u: (0.0, 0.0),
                        ell=lambda x: np.zeros((2, 1)))
    lvl0 = BarrierSpec(h=lambda x, u: 0.0, gamma=GAM, label="b0",
                       grad_x=lambda x, u: (1.0, 0.0), grad_u=lambda x, u: (0.0,))
    lvl1 = BarrierSpec(h=lambda x, u: 0.0, gamma=GAM, label="b1",
                       grad_x=lambda x, u: (0.0, 1.0), grad_u=lambda x, u: (1.0,))
    chain = BarrierChain(levels=(lvl0, lvl1))
    _, values, _ = build_constraints(model, (), chain, np.zeros(1), np.zeros(2), np.zeros(1),
                                     np.zeros(1), 0.0)
    assert values["b1"] == 0.0


def test_chain_requires_enough_gammas():
    # each level carries its own rate, so a chain's rates come with its
    # levels: all it needs is b_0 and b_1
    b0, b1, b2 = (BarrierSpec(h=lambda x, u: 1.0, gamma=GAM, grad_x=lambda x, u: (0.0,),
                              grad_u=lambda x, u: (0.0,), label=f"b{i}") for i in range(3))
    with pytest.raises(ConfigurationError, match="at least levels b_0 and b_1"):
        BarrierChain(levels=(b0,))
    assert BarrierChain(levels=(b0, b1)).m == 1
    assert BarrierChain(levels=(b0, b1, b2)).m == 2


def test_each_chain_level_uses_its_own_rate():
    # double integrator x0' = x1, x1' = u + d, chain b0 = x0,
    # b1 = b0' + k0 b0, b2 = b1' + k1 b1, top constraint b2' + k2 b2 >= 0,
    # three different linear rates so a level taking another's rate shows
    k0, k1, k2 = 2.0, 3.0, 5.0
    model = SystemModel(n=2, m=1, p=1, F=lambda x, u: (x[1], u[0]),
                        ell=lambda x: np.array([[0.0], [1.0]]))
    b0 = BarrierSpec(h=lambda x, u: x[0], gamma=linear_rate(k0), label="b0",
                     grad_x=lambda x, u: (1.0, 0.0), grad_u=lambda x, u: (0.0,))
    b1 = BarrierSpec(h=lambda x, u: x[1] + k0 * x[0], gamma=linear_rate(k1),
                     label="b1", grad_x=lambda x, u: (k0, 1.0), grad_u=lambda x, u: (0.0,))
    b2 = BarrierSpec(h=lambda x, u: u[0] + (k0 + k1) * x[1] + k0 * k1 * x[0],
                     gamma=linear_rate(k2), label="b2",
                     grad_x=lambda x, u: (k0 * k1, k0 + k1), grad_u=lambda x, u: (1.0,))
    chain = BarrierChain(levels=(b0, b1, b2))
    x, u, phi, envelope = np.array([1.5, -0.5]), np.array([0.25]), np.array([0.1]), 0.5
    (con,), values, _ = build_constraints(model, (), chain, phi, x, u, np.zeros(1), envelope)
    assert values["b0"] == 1.5
    # b1 = b0' + k0 b0 = -0.5 + 2 * 1.5; b0 does not see d, so no margin
    assert values["b1"] == 2.5
    # b2 = b1' + k1 b1 - |db1/dx ell| E = (2 * -0.5 + 0.25) + 3 * 2.5 - 1 * 0.5
    assert values["b2"] == 6.25
    # top: -(db2/dx F + db2/du phi + k2 b2) = -(6 * -0.5 + 5 * 0.25 + 0.1 + 5 * 6.25),
    # with the margin of the level below
    assert con.deficit == pytest.approx(-29.6, rel=1e-14)
    assert con.margin == 0.5


def test_repeated_labels_are_rejected(acc_scenario):
    # two levels under the default label "h" would share one value and one
    # b_h log column
    lvl0 = BarrierSpec(h=lambda x, u: 1.25, gamma=GAM, grad_x=lambda x, u: (0.0,),
                       grad_u=lambda x, u: (0.0,))
    lvl1 = BarrierSpec(h=lambda x, u: 0.25, gamma=GAM, grad_x=lambda x, u: (0.0,),
                       grad_u=lambda x, u: (1.0,))
    with pytest.raises(ConfigurationError, match="distinct"):
        BarrierChain(levels=(lvl0, lvl1))
    # plain barriers may neither repeat a label nor reuse a chain label
    h_u = acc_scenario.barriers[0]
    with pytest.raises(ConfigurationError, match="'h_u'"):
        dataclasses.replace(acc_scenario, barriers=(h_u, h_u))
    with pytest.raises(ConfigurationError, match="'h_x'"):
        dataclasses.replace(acc_scenario,
                            barriers=(dataclasses.replace(h_u, label="h_x"),))


def test_every_level_needs_both_gradients():
    # the filter calls both gradients of every level, with a value h or,
    # above level 0, without one; nothing fills in a gradient left out
    grad = lambda x, u: (0.0,)
    for h in (lambda x, u: 1.0, None):
        for given in ({}, {"grad_x": grad}, {"grad_u": grad}):
            with pytest.raises(TypeError, match="grad_"):
                BarrierSpec(h=h, gamma=GAM, label="b1", **given)
        for bad in (None, (0.0,)):
            for name, other in (("grad_x", "grad_u"), ("grad_u", "grad_x")):
                with pytest.raises(ConfigurationError, match=f"'b1' needs a callable {name}"):
                    BarrierSpec(h=h, gamma=GAM, label="b1", **{name: bad, other: grad})
        assert BarrierSpec(h=h, gamma=GAM, grad_x=grad, grad_u=grad).h is h


def test_evaluated_barriers_need_their_value(acc_scenario, example1_scenario):
    # b_0 and a plain barrier are evaluated, not derived from a level below
    b0, b1 = acc_scenario.chain.levels
    no_value = dataclasses.replace(b0, h=None)
    with pytest.raises(ConfigurationError, match="chain level 0 'h_x' has no value h"):
        BarrierChain(levels=(no_value, b1))
    # an upper level may carry a value, which is never read
    assert BarrierChain(levels=(b0, dataclasses.replace(b1, h=b0.h))).m == 1
    h_u = dataclasses.replace(acc_scenario.barriers[0], h=None)
    with pytest.raises(ConfigurationError, match="plain barrier 'h_u' has no value h"):
        dataclasses.replace(acc_scenario, barriers=(h_u,))
    sc = example1_scenario
    h_x = dataclasses.replace(sc.barriers[0], h=None)
    for target in (h_x, [h_x, sc.barriers[1]]):
        with pytest.raises(ConfigurationError, match="plain barrier 'h_x' has no value h"):
            check_validity(target, sc.model, lambda x, u: (0.0,), sc.check_box, 3)


def test_scenario_gradients_match_finite_differences(acc_scenario, bicycle_scenario):
    # against the values the filter evaluates: h for a plain barrier and for
    # level 0, the chain recurrence above it
    rng = SplitMix64(41)
    for name, scenario in (("acc", acc_scenario), ("bicycle", bicycle_scenario)):
        box = scenario.check_box
        for spec, value in level_values(scenario):
            for _ in range(100):
                x = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.x_low, box.x_high)])
                u = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.u_low, box.u_high)])
                err = gradient_error(spec, value, x, u)
                assert err <= 1e-4, (name, spec.label, err)


def test_gradient_error_is_relative_to_a_small_gradient(acc_scenario):
    # acc's h_e input gradient is -headway / mass = -1.8 / 1650 = -1.09e-3; an
    # error of 0.1% in it must read as 1e-3, not as 1e-6 against a norm of 1
    h_e, value = acc_scenario.chain.levels[1], dict(level_values(acc_scenario))
    off = dataclasses.replace(h_e, grad_u=lambda x, u: 1.001 * np.asarray(h_e.grad_u(x, u)))
    rng = SplitMix64(7)
    box = acc_scenario.check_box
    for _ in range(20):
        x = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.x_low, box.x_high)])
        u = np.array([rng.uniform(lo, hi) for lo, hi in zip(box.u_low, box.u_high)])
        assert gradient_error(h_e, value[h_e], x, u) <= 1e-4
        assert gradient_error(off, value[h_e], x, u) == pytest.approx(1e-3, rel=1e-2)


def test_check_validity_flags_state_barrier_counterexample(example1_scenario):
    sc = example1_scenario
    report = check_validity(list(sc.barriers), sc.model, lambda x, u: (0.0,),
                            sc.check_box, sc.check_resolution)
    assert not report.valid
    hits = [c for c in report.counterexamples
            if c["x"] == [4.0] and c["u"] == [0.0] and c["barrier"] == "h_x"]
    assert hits
    assert hits[0]["w"] == pytest.approx(4.0)
    assert hits[0]["margin"] == pytest.approx(0.0)


def test_check_validity_input_barrier_alone_is_clean(example1_scenario):
    sc = example1_scenario
    h_u = [b for b in sc.barriers if b.label == "h_u"]
    box = DomainBox(x_low=(0.0,), x_high=(4.0,), u_low=(-1.0,), u_high=(1.0,))
    report = check_validity(h_u, sc.model, lambda x, u: (0.0,), box, 9)
    assert report.valid
    assert report.counterexamples == []


def test_check_validity_bicycle_chain_degree_two(bicycle_scenario):
    sc = bicycle_scenario
    report = check_validity(sc.chain, sc.model, lambda x, u: (0.0,),
                            sc.check_box, sc.check_resolution, obs_cfg=sc.obs_cfg)
    assert report.valid
    assert report.relative_degree == 2


def test_check_validity_degree_never_exceeds_m(bicycle_scenario):
    # degenerate chain whose every level is input-free still reports <= m
    model = bicycle_scenario.model
    b0, b1 = (BarrierSpec(h=lambda x, u: 1.0 + x[0] ** 2, gamma=GAM,
                          grad_x=lambda x, u: (2.0 * x[0], 0.0, 0.0, 0.0),
                          grad_u=lambda x, u: (0.0,), label=f"b{i}") for i in range(2))
    chain = BarrierChain(levels=(b0, b1))
    box = DomainBox(x_low=(-1.0, -1.0, -1.0, 0.1), x_high=(1.0, 1.0, 1.0, 1.0),
                    u_low=(-0.5,), u_high=(0.5,))
    report = check_validity(chain, model, lambda x, u: (0.0,), box, 3)
    assert report.relative_degree <= chain.m


def test_check_validity_rejects_degenerate_grids(example1_scenario):
    sc = example1_scenario
    with pytest.raises(ConfigurationError):
        check_validity(list(sc.barriers), sc.model, lambda x, u: (0.0,),
                       sc.check_box, 1)
    with pytest.raises(ConfigurationError):
        DomainBox(x_low=(1.0,), x_high=(0.0,), u_low=(0.0,), u_high=(1.0,))
    with pytest.raises(ConfigurationError):
        check_validity([], sc.model, lambda x, u: (0.0,), sc.check_box, 3)


def test_check_validity_takes_one_resolution_rule(example1_scenario):
    # the rule check.resolution is held to: an int >= 2, not a bool, or a
    # list with one such int per axis; anything else is a ConfigurationError
    sc = example1_scenario
    for resolution in (2.5, [3, 2.5], "77", True, [3, True], (3, 3), [3], 1):
        with pytest.raises(ConfigurationError, match=(
                r"^resolution must be an int >= 2 or a list of 2 such ints, got ")):
            check_validity(list(sc.barriers), sc.model, lambda x, u: (0.0,), sc.check_box,
                           resolution)


def test_check_validity_report_serializes(example1_scenario):
    import json
    sc = example1_scenario
    report = check_validity(list(sc.barriers), sc.model, lambda x, u: (0.0,),
                            sc.check_box, sc.check_resolution)
    payload = json.loads(json.dumps(vars(report)))  # as the CLI writes it
    assert set(payload) == {"valid", "relative_degree", "counterexamples"}
    assert payload["valid"] is False
    entry = payload["counterexamples"][0]
    assert {"x", "u", "w", "margin", "t", "barrier"} <= set(entry)
