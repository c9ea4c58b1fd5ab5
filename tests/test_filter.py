import numpy as np
import pytest

from do_icbf import (ConfigurationError, FilterConstraint, SimConfig,
                     SplitMix64, build_constraints, error_envelope,
                     run_closed_loop, solve_multi)

from oracles import (active_set_oracle, closed_form_single, column, disturbance_estimate,
                     exact_oracle, random_instances)


def solve_one(p, f):
    """The QP with the single constraint p . v >= f."""
    return solve_multi([FilterConstraint(p, f)])


def test_solve_single_slack_constraint_returns_zero():
    res = solve_one(np.array([3.0, -1.0]), -1.0)
    assert not res.infeasible
    assert np.array_equal(res.v_star, np.zeros(2))


def test_solve_single_zero_normal_is_infeasible():
    res = solve_one(np.zeros(2), 1.0)
    assert res.infeasible
    # m = 1 too, however small the rhs and whatever the other constraints
    assert solve_multi([FilterConstraint(0.0, 1e-12), FilterConstraint(1.0, -1.0)]).infeasible


def test_solve_single_constraint_tight():
    rng = SplitMix64(5)
    for _ in range(200):
        m = rng.integer(1, 3)
        p = np.array([rng.uniform(-5, 5) for _ in range(m)])
        f = rng.uniform(0.01, 10.0)
        if float(p @ p) < 1e-4:
            continue
        res = solve_one(p, f)
        assert abs(float(p @ res.v_star) - f) <= 1e-12 * max(1.0, abs(f))


def test_solve_multi_reduces_to_solve_single():
    # one constraint: solve_multi reproduces the closed form bit for bit
    rng = SplitMix64(17)
    for _ in range(1000):
        m = rng.integer(1, 3)
        p = np.array([rng.uniform(-5, 5) for _ in range(m)])
        f = rng.uniform(-5, 5)
        expected = closed_form_single(p, f)
        res = solve_one(p, f)
        assert res.infeasible == (expected is None)
        assert np.array_equal(res.v_star, np.zeros(m) if expected is None else expected)


def test_solve_multi_interval_example():
    cons = [FilterConstraint(np.array([1.0]), 2.0),
            FilterConstraint(np.array([-1.0]), -5.0)]
    res = solve_multi(cons)
    assert not res.infeasible
    assert res.v_star[0] == pytest.approx(2.0, abs=1e-12)


def test_solve_multi_detects_empty_interval():
    cons = [FilterConstraint(np.array([1.0]), 1.0),
            FilterConstraint(np.array([-1.0]), 1.0)]
    assert solve_multi(cons).infeasible


def test_solve_multi_rejects_too_many_constraints():
    cons = [FilterConstraint(np.ones(2), 0.0) for _ in range(9)]
    with pytest.raises(ConfigurationError):
        solve_multi(cons)


def _random_instance(rng, m, k):
    P = np.array([[rng.uniform(-5, 5) for _ in range(m)] for _ in range(k)])
    r = np.array([rng.uniform(-5, 5) for _ in range(k)])
    return P, r


def test_solve_multi_against_independent_oracles():
    # quick battery; the full 1000-instance criterion lives in the acceptance suite
    for P, r in random_instances(SplitMix64(2024_02), 150):
        res = solve_multi([FilterConstraint(P[i], r[i]) for i in range(P.shape[0])])
        v_exact = exact_oracle(P, r)
        assert res.infeasible == (v_exact is None)
        if v_exact is not None:
            assert np.linalg.norm(res.v_star - v_exact) <= 1e-9
        if not res.infeasible:
            v_as = active_set_oracle(P, r)
            assert v_as is not None
            assert np.linalg.norm(res.v_star - v_as) <= 1e-9


def test_solve_multi_feasibility_tolerance_scales_with_the_instance():
    # m = 2 with |p| up to 1e6 and rhs in [1e11, 1e13]: two half-planes with
    # independent normals always meet, and the candidate's roundoff grows with
    # |rhs|, so an unscaled tolerance would call nearly half of these infeasible
    rng = SplitMix64(5)
    for _ in range(40):
        P = np.array([[rng.uniform(-1e6, 1e6) for _ in range(2)] for _ in range(2)])
        r = np.array([rng.uniform(1e11, 1e13) for _ in range(2)])
        res = solve_multi([FilterConstraint(P[i], r[i]) for i in range(2)])
        v_exact = exact_oracle(P, r)
        v_as = active_set_oracle(P, r)
        assert not res.infeasible and v_exact is not None and v_as is not None
        assert np.linalg.norm(res.v_star - v_exact) <= 1e-9 * np.linalg.norm(v_exact)
        assert np.linalg.norm(res.v_star - v_as) <= 1e-9 * np.linalg.norm(v_as)


def test_solve_multi_complementary_slackness():
    # KKT from the slacks alone: v* = sum of lam_i p_i with lam >= 0 over the
    # constraints that hold with equality, and v* = 0 when none does
    rng = SplitMix64(77)
    for _ in range(300):
        m = rng.integer(1, 3)
        k = rng.integer(1, 3)
        P, r = _random_instance(rng, m, k)
        cons = [FilterConstraint(P[i], r[i]) for i in range(k)]
        res = solve_multi(cons)
        if res.infeasible:
            continue
        v_norm = float(np.linalg.norm(res.v_star))
        tight = []
        for i, c in enumerate(cons):
            slack = c.slack(res.v_star)
            scale = max(1.0, abs(c.rhs), float(np.linalg.norm(c.p_row)) * v_norm)
            assert slack >= -1e-9 * scale
            if abs(slack) <= 1e-9 * scale:
                tight.append(i)
        if not tight:
            assert np.array_equal(res.v_star, np.zeros(m))
            continue
        lam, *_ = np.linalg.lstsq(P[tight].T, res.v_star, rcond=None)
        assert np.linalg.norm(P[tight].T @ lam - res.v_star) <= 1e-9 * max(1.0, v_norm)
        assert lam.min() >= -1e-9 * max(1.0, float(np.abs(lam).max()))


def test_a_list_or_scalar_row_solves_as_its_array():
    # a row given as a list, or as a scalar when m = 1, is read as the 1-D
    # float array it stands for: the same v*, verdict and slacks bit for bit
    for P, r in random_instances(SplitMix64(2110), 60):
        arrays = [FilterConstraint(P[i], r[i]) for i in range(P.shape[0])]
        given = [FilterConstraint(P[i].tolist(), r[i]) for i in range(P.shape[0])]
        if P.shape[1] == 1:
            given = [FilterConstraint(float(P[i, 0]), r[i]) for i in range(P.shape[0])]
        expected, res = solve_multi(arrays), solve_multi(given)
        assert res.infeasible == expected.infeasible
        assert np.array_equal(res.v_star, expected.v_star)
        probe = expected.v_star + 0.25
        for a, g in zip(arrays, given):
            assert g.slack(res.v_star) == a.slack(expected.v_star)
            assert g.slack(probe) == a.slack(probe)


def test_a_constraint_is_its_fold_row(acc_scenario):
    # build_constraints names the (p, deficit, margin, label) rows of the fold
    # and rhs is their sum; a constraint given by its rhs alone has margin 0
    sc = acc_scenario
    envelope = error_envelope(sc.obs_cfg, 30.0)
    constraints, _, _ = build_constraints(sc.model, sc.barriers, sc.chain, np.array([2.0]),
                                          np.array([0.0, 13.0, 23.5]), np.array([0.0]),
                                          np.array([2.0]), envelope)
    assert [c._fields for c in constraints] == [("p_row", "deficit", "margin", "label")] * 2
    assert max(c.margin for c in constraints) > 0.0
    assert all(c.rhs == c.deficit + c.margin for c in constraints)
    c = FilterConstraint([1.0, 2.0], 3.0)
    assert (c.deficit, c.margin, c.label, c.rhs) == (3.0, 0.0, "h", 3.0)
    assert c.slack(np.array([1.0, 1.0])) == 0.0


def _safe_rate(sc, phi, r, x, u, t):
    """phi + v* from the observer estimate, as the vector kernel computes it."""
    d_hat = disturbance_estimate(sc.obs_cfg, r, x)
    constraints, _, _ = build_constraints(sc.model, sc.barriers, sc.chain, phi, x, u,
                                          d_hat, error_envelope(sc.obs_cfg, t))
    result = solve_multi(constraints)
    return phi + result.v_star, result, constraints


def test_safe_rate_slack_constraints_leave_phi_untouched(bicycle_scenario):
    sc = bicycle_scenario
    phi = np.array([0.05])
    u_dot, result, _ = _safe_rate(sc, phi, sc.start()[-1:], sc.x0, sc.u0, 0.0)
    assert not result.infeasible
    assert np.array_equal(result.v_star, np.zeros(1))
    assert np.array_equal(u_dot, phi)


def test_safe_rate_active_constraint_matches_formula(acc_scenario):
    # near the headway boundary with an aggressive nominal rate the chain row
    # must fire; check u_dot = phi + (f / ||p||^2) p term by term
    sc = acc_scenario
    x = np.array([0.0, 13.0, 23.5])
    u = np.array([0.0])
    phi = np.array([2.0e5])
    r = np.array([-13.0 + 2.0])  # estimate = 2 exactly
    u_dot, result, constraints = _safe_rate(sc, phi, r, x, u, 30.0)
    assert not result.infeasible
    he = {c.label: c for c in constraints}["h_e"]
    f = he.rhs
    assert f > 0.0
    expected = f / float(he.p_row @ he.p_row) * he.p_row
    assert np.allclose(result.v_star, expected, rtol=1e-10)
    assert np.allclose(u_dot, phi + expected, rtol=1e-10)


def test_safe_rate_bicycle_start_needs_no_correction(bicycle_scenario):
    sc = bicycle_scenario
    log = run_closed_loop(sc, SimConfig(dt=1e-3, t_end=0.5, filter_mode="high_order"))
    assert np.allclose(column(log, "vstar0"), 0.0, atol=1e-12)


def test_safe_rate_propagates_infeasibility(example1_scenario):
    _, result, _ = _safe_rate(example1_scenario, np.zeros(1), np.zeros(1), np.array([4.0]),
                              np.zeros(1), 0.0)
    assert result.infeasible
