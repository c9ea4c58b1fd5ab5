import dataclasses
import gc
import math
import os
import tracemalloc

import numpy as np
import pytest

from do_icbf import (AugmentedState, BarrierChain, BarrierSpec, BlowupError, ClassKFunction,
                     ConfigurationError, ContractViolationError, DisturbanceBounds, DomainBox,
                     ObserverConfig, Scenario, SimConfig, SplitMix64,
                     SystemModel, build_acc, build_bicycle, build_example1, build_scenario,
                     rk4_step, run_closed_loop, simulate, sinusoid_disturbance,
                     summarize)
from do_icbf.control_laws import ZeroRate
from oracles import column


def test_rk4_zero_rhs():
    z = np.array([1.0, -2.0])
    out = rk4_step(lambda t, zz: np.zeros(2), 0.0, z, 0.1)
    assert np.array_equal(out, z)


def test_rk4_constant_rhs_exact():
    c = np.array([2.0, -0.5])
    out = rk4_step(lambda t, zz: c, 0.0, np.zeros(2), 0.25)
    assert np.array_equal(out, 0.25 * c)


def test_rk4_exponential_decay():
    out = rk4_step(lambda t, zz: -zz, 0.0, np.ones(1), 0.1)
    assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


def test_rk4_fourth_order_convergence():
    # global error over [0, 1] for z' = -z shrinks ~16x when dt halves
    def integrate(dt):
        z = np.ones(1)
        steps = int(round(1.0 / dt))
        for k in range(steps):
            z = rk4_step(lambda t, zz: -zz, k * dt, z, dt)
        return abs(z[0] - math.exp(-1.0))

    ratio = integrate(1e-2) / integrate(5e-3)
    assert ratio >= 14.0


def test_rk4_blowup_reports_time():
    def rhs(t, z):
        return z * z * 1e5

    z = np.array([10.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as err:
            t = 0.0
            for _ in range(100):
                z = rk4_step(rhs, t, z, 0.5)
                t += 0.5
    assert err.value.t >= 0.0
    with pytest.raises(Exception):
        rk4_step(rhs, 0.0, z, -1.0)


def test_sim_config_validation():
    SimConfig(dt=1e-3, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=1e-3, t_end=1e-4)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=1e-3, t_end=1.0, log_stride=0)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=1e-3, t_end=1.0, filter_mode="none")
    # a NaN or infinite step or horizon has no step count
    for dt, t_end in ((math.nan, 1.0), (math.inf, 1.0), (1e-3, math.nan), (1e-3, math.inf)):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=dt, t_end=t_end)
    # nor does a finite pair whose quotient overflows
    for dt, t_end in ((1e-320, 50.0), (1e-200, 1e200)):
        with pytest.raises(ConfigurationError, match=r"t_end / dt .*t_end=.*dt="):
            SimConfig(dt=dt, t_end=t_end)


def _static_scenario():
    model = SystemModel(n=1, m=1, p=1, F=lambda x, u: (0.0,),
                        ell=lambda x: np.zeros((1, 1)))
    obs = ObserverConfig(beta=1.0, L_d=np.zeros((1, 1)), mu1=1.0,
                         e_d0_bound=0.0, bounds=DisturbanceBounds(0.0, 0.0))
    return Scenario(
        name="static", model=model, law=ZeroRate(), obs_cfg=obs,
        initial=AugmentedState(np.array([0.5]), np.zeros(1), np.zeros(1)),
        domain=DomainBox((-1.0,), (1.0,), (-1.0,), (1.0,)),
    )


def test_zero_dynamics_constant_trajectory():
    log = run_closed_loop(_static_scenario(), SimConfig(dt=0.01, t_end=1.0,
                                                        filter_mode="off"))
    assert log.halt_reason == "completed"
    assert np.all(column(log, "x0") == 0.5)
    assert np.all(column(log, "u0") == 0.0)
    metrics = summarize(log)
    assert metrics["correction_effort"] == 0.0


def test_log_row_count_invariant(acc_scenario):
    for stride in (1, 7, 50):
        cfg = SimConfig(dt=1e-2, t_end=2.0, log_stride=stride, filter_mode="off")
        log = run_closed_loop(acc_scenario, cfg)
        expected = math.floor(cfg.t_end / (cfg.dt * stride)) + 1
        # the final state row is always logged, so allow the extra row when
        # the stride does not divide the horizon
        n_steps = int(round(cfg.t_end / cfg.dt))
        extra = 0 if n_steps % stride == 0 else 1
        assert len(log.rows) == expected + extra
        t = column(log, "t")
        assert np.all(np.diff(t) > 0)


@pytest.mark.parametrize("name,mode", [("acc", "off"), ("acc", "do_icbf"),
                                       ("bicycle", "high_order")])
def test_metrics_do_not_depend_on_log_stride(name, mode, acc_scenario, bicycle_scenario):
    # the loop folds every step into the metrics, logged or not
    scenario = acc_scenario if name == "acc" else bicycle_scenario
    results = []
    for stride in (1, 7, 1000):
        log = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=3.0, log_stride=stride,
                                                  filter_mode=mode))
        metrics = summarize(log, scenario)
        del metrics["steps_logged"]
        results.append(metrics)
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("name,overrides,cfg,halt", [
    ("acc", {}, dict(dt=2.0, t_end=2000.0, filter_mode="off"), "blowup"),
    ("bicycle", {"accel": -0.1}, dict(dt=1e-3, t_end=8.0, filter_mode="high_order"), "error"),
], ids=["acc-blowup", "bicycle-error"])
def test_halt_row_does_not_depend_on_log_stride(name, overrides, cfg, halt):
    # the log ends at the last decided step whether or not it is on the stride
    scenario = build_scenario(name, **overrides)
    ends = []
    for stride in (1, 3):
        log = run_closed_loop(scenario, SimConfig(log_stride=stride, **cfg))
        assert log.halt_reason == halt
        metrics = summarize(log, scenario)
        assert log.rows[-1][0] == metrics["t_final"]
        ends.append((np.asarray(log.rows[-1]).tobytes(), metrics["tracking"]))
    assert ends[1] == ends[0]


def test_initial_state_must_match_model_dimensions():
    sc = _static_scenario()
    for x, u, r in (([0.5, 0.0], [0.0], [0.0]), ([0.5], [], [0.0]), ([0.5], [0.0], [0.0, 0.0])):
        with pytest.raises(ContractViolationError, match="initial"):
            dataclasses.replace(sc, initial=AugmentedState(x, u, r))


def test_determinism_bit_identical(acc_scenario, tmp_path):
    cfg = SimConfig(dt=1e-3, t_end=1.0, filter_mode="do_icbf")
    a = run_closed_loop(acc_scenario, cfg)
    b = run_closed_loop(acc_scenario, cfg)
    assert a.rows.tobytes() == b.rows.tobytes()  # bitwise, so -0.0 != 0.0
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def _wall_scenario():
    """A disturbed double integrator x0' = x1, x1' = u + d kept below the wall
    x0 = 1 by a custom chain whose levels above 0 are their recurrence:
    b0 = 1 - x0, b1 = -x1 + k0 b0 and b2 = -k0 x1 - u + k1 b1, given by
    their gradients alone, with three different rates."""
    k0, k1, k2 = 2.0, 3.0, 5.0
    ell = np.array([[0.0], [1.0]])
    model = SystemModel(n=2, m=1, p=1, F=lambda x, u: (x[1], u[0]), ell=lambda x: ell,
                        d_true=sinusoid_disturbance(0.2, 1.0))
    chain = BarrierChain(levels=(
        BarrierSpec(h=lambda x, u: 1.0 - x[0], gamma=ClassKFunction.linear(k0), label="b0",
                    grad_x=lambda x, u: (-1.0, 0.0), grad_u=lambda x, u: (0.0,)),
        BarrierSpec(h=None, gamma=ClassKFunction.linear(k1), label="b1",
                    grad_x=lambda x, u: (-k0, -1.0), grad_u=lambda x, u: (0.0,)),
        BarrierSpec(h=None, gamma=ClassKFunction.linear(k2), label="b2",
                    grad_x=lambda x, u: (-k1 * k0, -k0 - k1), grad_u=lambda x, u: (-1.0,)),
    ))
    x0 = np.array([0.5, 0.2])
    obs = ObserverConfig(beta=1.0, L_d=ell.T, mu1=1.0, e_d0_bound=0.2,
                         bounds=DisturbanceBounds(0.2, 0.2))
    return Scenario(
        name="wall", model=model, law=ZeroRate(), obs_cfg=obs,
        initial=AugmentedState(x0, np.array([0.2]), -(ell.T @ x0)),
        domain=DomainBox((-10.0, -10.0), (10.0, 10.0), (-5.0,), (5.0,)),
        chain=chain, fast_loop=True,
    )


@pytest.mark.parametrize("mode", ["off", "icbf", "do_icbf", "high_order"])
def test_fast_and_generic_loops_agree(mode, acc_scenario, bicycle_scenario):
    # the built-in chains give their top two levels one rate; a third top
    # rate shows a kernel that takes the top constraint's rate from below
    chain = bicycle_scenario.chain
    top = dataclasses.replace(chain.levels[2], gamma=ClassKFunction.linear(3.0))
    own_top_rate = dataclasses.replace(
        bicycle_scenario, chain=BarrierChain(levels=chain.levels[:2] + (top,)))
    # two plain barriers next to a chain, and two with none, pin the order of
    # the values (chain levels first) and of the constraints (plain first);
    # example1 from x0 = 1 also halts infeasible in the filter modes, and the
    # wall scenario's custom chain has no value above level 0
    h_u = acc_scenario.barriers[0]
    loose = dataclasses.replace(h_u, h=lambda x, u: h_u.h(x, u) + 1e6, label="h_u_loose")
    two_plain = dataclasses.replace(acc_scenario, barriers=(h_u, loose))
    for scenario in (acc_scenario, bicycle_scenario, own_top_rate, two_plain,
                     build_example1(x0=(1.0,)), _wall_scenario()):
        cfg = SimConfig(dt=1e-3, t_end=1.0, filter_mode=mode)
        fast = run_closed_loop(scenario, cfg)
        generic = run_closed_loop(dataclasses.replace(scenario, fast_loop=False), cfg)
        assert fast.header == generic.header
        assert fast.halt_reason == generic.halt_reason
        diff = np.abs(np.asarray(fast.rows) - np.asarray(generic.rows))
        scale = np.abs(np.asarray(generic.rows)).max()
        assert diff.max() <= 1e-12 * max(1.0, scale)


def test_truncation_on_infeasibility():
    sc = build_example1(x0=(3.9,))
    log = run_closed_loop(sc, SimConfig(dt=1e-3, t_end=1.0, filter_mode="do_icbf"))
    assert log.halt_reason == "infeasible"
    assert log.rows[-1][log.header.index("infeasible")] == 1.0
    assert column(log, "t")[-1] < 1.0
    metrics = summarize(log)
    assert metrics["halt_reason"] == "infeasible"


def test_log_is_packed_float64(bicycle_scenario):
    # one 8-byte double per logged value, and at most one chunk of them in
    # memory: whatever the horizon, a run retains no more than a chunk plus a
    # fixed 64 KiB (a 5 s bicycle run has 5001 rows of 128 B, 640 KB), and
    # holds no more than two chunks at its peak (the buffer and the bytes
    # written from it); the rest is in the spool, 8 B per value
    chunk = simulate.LOG_CHUNK_BYTES
    run_closed_loop(bicycle_scenario, SimConfig(dt=1e-3, t_end=0.01, filter_mode="high_order"))
    for t_end in (5.0, 20.0):
        cfg = SimConfig(dt=1e-3, t_end=t_end, filter_mode="high_order")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = run_closed_loop(bicycle_scenario, cfg)
            gc.collect()
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        rows, columns = len(log.rows), len(log.header)
        assert rows == round(t_end * 1000) + 1
        assert retained <= chunk + 64 * 1024, t_end
        assert peak <= 2 * chunk + 64 * 1024, t_end
        assert os.fstat(log.spool.fileno()).st_size == 8 * columns * rows
        assert log.rows.shape == (rows, columns) and log.rows.dtype == np.float64
        assert not log.rows.flags.writeable


def _spool_runs(monkeypatch, tmp_path, scenario, cfg, chunks):
    """(halt, rows bytes, CSV bytes) of the run of scenario under cfg with a
    chunk of each given number of rows, None for the default chunk."""
    width = len(simulate.TrajectoryLog(scenario, cfg).header)
    default = simulate.LOG_CHUNK_BYTES
    out = []
    for rows in chunks:
        monkeypatch.setattr(simulate, "LOG_CHUNK_BYTES", default if rows is None
                            else 8 * width * rows)
        log = run_closed_loop(scenario, cfg)
        if rows is not None and len(log.rows) > rows:
            assert log.spool is not None
        log.write_csv(tmp_path / "log.csv")
        out.append((log.halt_reason, np.asarray(log.rows).tobytes(),
                    (tmp_path / "log.csv").read_bytes()))
    return out


@pytest.mark.parametrize("fast", [True, False], ids=["float", "vector"])
@pytest.mark.parametrize("mode", ["off", "icbf", "do_icbf", "high_order"])
@pytest.mark.parametrize("name", ["acc", "bicycle"])
def test_spooled_log_matches_the_default_chunk(monkeypatch, tmp_path, name, mode, fast):
    # a chunk of 3 rows spools all but the last row or two; its rows and its
    # CSV, read back from the spool, are the bytes of the default chunk's
    # (whose rows tests/test_golden.py pins)
    scenario = dataclasses.replace(build_scenario(name), fast_loop=fast)
    cfg = SimConfig(dt=1e-3, t_end=2.0, filter_mode=mode)
    default, spooled = _spool_runs(monkeypatch, tmp_path, scenario, cfg, (None, 3))
    assert default[0] == "completed"
    assert len(default[1]) == 8 * 2001 * len(simulate.TrajectoryLog(scenario, cfg).header)
    assert spooled == default


@pytest.mark.parametrize("name,overrides,cfg,halt", [
    ("acc", {}, SimConfig(dt=2.0, t_end=2000.0, filter_mode="off"), "blowup"),
    ("example1", {"x0": (3.9,)}, SimConfig(dt=1e-3, t_end=1.0), "infeasible"),
    ("bicycle", {"accel": -0.1}, SimConfig(dt=1e-3, t_end=8.0, log_stride=10), "error"),
], ids=["blowup", "infeasible", "error"])
def test_spooled_log_of_a_halted_run(monkeypatch, tmp_path, name, overrides, cfg, halt):
    # a blowup or error halt appends its last row after the loop: with chunks
    # of 1, 2 and 3 rows it lands just after a spill or fills a chunk in one
    # of them; each gives the bytes of the log held in memory whole
    whole, *spooled = _spool_runs(monkeypatch, tmp_path, build_scenario(name, **overrides),
                                  cfg, (10 ** 9, 1, 2, 3))
    assert whole[0] == halt
    assert all(run == whole for run in spooled)


def test_blowup_truncates_with_reason(acc_scenario):
    # a wildly unstable step size overflows the closed loop
    log = run_closed_loop(acc_scenario, SimConfig(dt=2.0, t_end=2000.0,
                                                  filter_mode="off"))
    assert log.halt_reason == "blowup"
    assert len(log.rows) >= 1


def test_build_acc_checks_and_values(acc_scenario):
    # headway barrier at the published operating point
    h_x = acc_scenario.chain.levels[0]
    # substitution oracle: 50 - 1.8 * 13.89 (= 24.998, i.e. ~25)
    assert h_x.h(np.array([0.0, 13.89, 50.0]), np.zeros(1)) == pytest.approx(50.0 - 1.8 * 13.89, abs=1e-12)
    h_u = acc_scenario.barriers[0]
    mcg = 1650.0 * 0.3 * 9.81
    assert mcg == pytest.approx(4855.95)
    assert h_u.h(np.zeros(3), np.zeros(1)) == pytest.approx(4855.95 ** 2)
    # constructor rejects starts outside the safe set
    with pytest.raises(ConfigurationError):
        build_acc(x0=(0.0, 20.0, 20.0))
    # the predictive rate law divides by exp(-c1 T / m) - 1, so T = 0 would
    # fail at the first step
    with pytest.raises(ConfigurationError, match="horizon"):
        build_acc(horizon=0.0)
    # the chain's input gradient is -headway / mass
    with pytest.raises(ConfigurationError, match="mass must be > 0"):
        build_acc(mass=0.0)
    # exp(-c1 T / m) rounds to 1 for a tiny horizon or a huge mass
    for keyword in ({"horizon": 1e-300}, {"mass": 1e308}):
        with pytest.raises(ContractViolationError, match="rounds to 1"):
            build_acc(**keyword)


def test_build_bicycle_checks_and_values(bicycle_scenario):
    b0 = bicycle_scenario.chain.levels[0]
    x0 = bicycle_scenario.initial.x
    assert b0.h(x0, np.zeros(1)) == pytest.approx(324.0)
    # a zero wheelbase would divide by zero in F and the chain gradients
    for wheelbase in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigurationError, match="wheelbase must be > 0"):
            build_bicycle(wheelbase=wheelbase)
    # no steering, no turn
    f = bicycle_scenario.model.F(np.array([0.0, 0.0, 0.3, 0.5]), np.zeros(1))
    assert f[2] == 0.0
    assert bicycle_scenario.chain.m == 2


def test_filter_off_violates_headway(acc_scenario):
    log = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=10.0,
                                                  filter_mode="off"))
    metrics = summarize(log, acc_scenario)
    assert metrics["barrier_min"]["h_x"] < 0.0
    assert metrics["unsafe"]


def test_summarize_fields_and_effort(acc_scenario):
    log = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=2.0,
                                                  filter_mode="do_icbf"))
    metrics = summarize(log, acc_scenario)
    assert set(metrics) >= {"barrier_min", "envelope_violation_max",
                            "correction_effort", "halt_reason", "unsafe",
                            "left_domain_box", "tracking", "e_d0_true",
                            "e_d0_bound"}
    assert metrics["correction_effort"] > 0.0
    assert metrics["e_d0_true"] == pytest.approx(2.0)  # |0 - 2|
    assert metrics["e_d0_bound"] == pytest.approx(2.0)
    assert metrics["halt_reason"] == "completed"
    assert not metrics["unsafe"]


def test_domain_box_exit_flag(acc_scenario):
    log = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=30.0,
                                                  filter_mode="off"))
    # unfiltered run accelerates far past the speed box
    assert summarize(log)["left_domain_box"]
    safe = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=5.0,
                                                   filter_mode="do_icbf"))
    assert not summarize(safe)["left_domain_box"]


def test_comparison_lemma_harness():
    # scalar ODEs b' = -gamma b + s(t), s >= 0, b(0) >= 0 stay nonnegative
    rng = SplitMix64(101)
    for _ in range(50):
        gamma = rng.uniform(0.1, 4.0)
        b0 = rng.uniform(0.0, 3.0)
        amp = rng.uniform(0.0, 2.0)
        freq = rng.uniform(0.1, 5.0)
        phase = rng.uniform(0.0, 2 * math.pi)

        def rhs(t, z):
            s = amp * (1.0 + math.sin(freq * t + phase))  # nonnegative forcing
            return np.array([-gamma * z[0] + s])

        z = np.array([b0])
        dt = 1e-3
        worst = b0
        for k in range(2000):
            z = rk4_step(rhs, k * dt, z, dt)
            worst = min(worst, z[0])
        assert worst >= -1e-9


def test_sinusoid_disturbance_bounds():
    d = sinusoid_disturbance(1.5, 2.0, 0.3)
    ts = np.linspace(0.0, 20.0, 2000)
    vals = np.array([d(t)[0] for t in ts])
    assert np.abs(vals).max() <= 1.5 + 1e-12
    rates = np.diff(vals) / np.diff(ts)
    assert np.abs(rates).max() <= 1.5 * 2.0 + 1e-2
