"""The grid validity checker against its plain per-point reference scan, and
the work it does per point and per time."""

import collections
import dataclasses

import numpy as np
import pytest

from do_icbf import (BarrierChain, BarrierSpec, ClassKFunction, DisturbanceBounds,
                     DomainBox, ObserverConfig, SplitMix64, SystemModel, build_acc,
                     build_bicycle, build_example1, check_validity, error_envelope,
                     filter as qp, sinusoid_disturbance)

from oracles import reference_check_validity

GAM = ClassKFunction.linear(1.0)
BOX2 = DomainBox(x_low=(-2.0, -2.0), x_high=(2.0, 2.0), u_low=(-1.0, -1.0), u_high=(1.0, 1.0))


def _two_input_model():
    """n = 2, m = 2, p = 1 with a disturbance channel the barriers see."""
    ell = np.array([[1.0], [0.5]])
    return SystemModel(n=2, m=2, p=1,
                       F=lambda x, u: np.array([x[0] * x[0] - u[0], u[1] - x[1]]),
                       ell=lambda x: ell)


def _two_input_barrier(c: float) -> BarrierSpec:
    """h = c - x0 - |u|^2; its numpy input gradient vanishes at u = 0."""
    return BarrierSpec(h=lambda x, u: c - x[0] - u[0] * u[0] - u[1] * u[1], gamma=GAM,
                       grad_x=lambda x, u: np.array([-1.0, 0.0]),
                       grad_u=lambda x, u: np.array([-2.0 * u[0], -2.0 * u[1]]), label="h")


def _partly_free_chain() -> BarrierChain:
    """b0 = 2 - x0 - x1^2 and a top level whose input gradient (x1, 0)
    vanishes on the x1 = 0 slice of the grid."""
    b0 = BarrierSpec(h=lambda x, u: 2.0 - x[0] - x[1] * x[1], gamma=GAM,
                     grad_x=lambda x, u: np.array([-1.0, -2.0 * x[1]]),
                     grad_u=lambda x, u: np.zeros(2), label="b0")
    b1 = BarrierSpec(h=lambda x, u: x[1] * u[0], gamma=GAM,
                     grad_x=lambda x, u: np.array([-1.0, u[0] - 2.0 * x[1]]),
                     grad_u=lambda x, u: np.array([x[1], 0.0]), label="b1")
    return BarrierChain(levels=(b0, b1))


def _observer(e0: float, k1: float) -> ObserverConfig:
    return ObserverConfig(beta=1.0, L_d=np.array([[1.0, 0.0]]), mu1=1.0, e_d0_bound=e0,
                          bounds=DisturbanceBounds(2.0, k1))


def _scalar_grad_example1():
    """example1's barriers with the input gradient of h_u as a bare scalar."""
    sc = build_example1()
    h_x, h_u = sc.barriers
    return sc, [h_x, dataclasses.replace(h_u, grad_u=lambda x, u: -2.0 * u[0])]


def _case(kind: str, rng: SplitMix64) -> tuple:
    """(target, model, obs_cfg, box, dims) of one seeded case."""
    if kind in ("acc-chain", "acc-force", "acc-sinusoid"):
        if kind == "acc-sinusoid":
            amp, omega = rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)
            sc = build_acc(d_true=sinusoid_disturbance(amp, omega),
                           bounds=DisturbanceBounds(amp, amp * omega))
        else:
            sc = build_acc()
        target = sc.barriers[0] if kind == "acc-force" else sc.chain
        return target, sc.model, sc.obs_cfg, sc.check_box, 4
    if kind == "bicycle":
        sc = build_bicycle()
        return sc.chain, sc.model, sc.obs_cfg, sc.check_box, 5
    if kind == "example1":
        sc = build_example1()
        return list(sc.barriers), sc.model, sc.obs_cfg, sc.check_box, 2
    if kind == "example1-scalar":
        sc, specs = _scalar_grad_example1()
        return specs, sc.model, sc.obs_cfg, sc.check_box, 2
    obs = _observer(rng.uniform(0.0, 3.0), rng.uniform(0.5, 3.0))
    if kind == "two-input":
        return _two_input_barrier(rng.uniform(0.0, 2.0)), _two_input_model(), obs, BOX2, 4
    return _partly_free_chain(), _two_input_model(), obs, BOX2, 4


KINDS = ("acc-chain", "acc-force", "acc-sinusoid", "bicycle", "example1", "example1-scalar",
         "two-input", "partly-free-chain")


@pytest.mark.parametrize("kind", KINDS)
def test_check_matches_the_reference_scan(kind):
    rng = SplitMix64(20231017 + KINDS.index(kind))
    for _ in range(4):
        target, model, obs, box, dims = _case(kind, rng)
        resolution = [2 * rng.integer(1, 2) + 1 for _ in range(dims)]  # 3 or 5: 0 is on the grid
        times = None
        if rng.integer(0, 1):
            times = [rng.uniform(0.0, 20.0) for _ in range(rng.integer(1, 3))]
            times.insert(rng.integer(0, len(times)), times[rng.integer(0, len(times) - 1)])
        gains = [rng.uniform(-2.0, 2.0) for _ in range(model.m)]

        def phi(x, u):
            return np.array([g * x[0] for g in gains])

        got = check_validity(target, model, phi, box, resolution, obs_cfg=obs, times=times)
        want = reference_check_validity(target, model, phi, box, resolution, obs_cfg=obs,
                                        times=times)
        assert got == want


def test_the_equivalence_cases_reach_counterexamples_that_depend_on_the_time():
    # the partly input-free chain fails at some check times and not at others,
    # so sharing one assembly across equal envelopes is exercised for real
    obs = _observer(1.5, 0.5)
    times = [0.0, 8.0, 0.0]
    report = check_validity(_partly_free_chain(), _two_input_model(), lambda x, u: np.zeros(2),
                            BOX2, 5, obs_cfg=obs, times=times)
    per_time = collections.Counter(c["t"] for c in report.counterexamples)
    assert per_time[0.0] > 0 and per_time[0.0] % 2 == 0
    assert per_time[0.0] // 2 != per_time[8.0]
    # one record per failing time, in `times` order, point after point
    per_point = collections.defaultdict(list)
    for c in report.counterexamples:
        per_point[(*c["x"], *c["u"])].append(c["t"])
    for failing in per_point.values():
        assert failing == [t for t in times if t in failing]
    assert {len(failing) for failing in per_point.values()} == {1, 2, 3}


class _Counts:
    """Wraps the specs of a target, phi and build_constraints, and counts
    each input-gradient call made outside build_constraints per point."""

    def __init__(self, monkeypatch):
        self.grad_u = collections.defaultdict(collections.Counter)  # label -> (x, u) -> calls
        self.phi = 0
        self.builds = 0
        self.envelopes = collections.Counter()
        self._inside = False
        real = qp.build_constraints

        def build_constraints(*args):
            self.builds += 1
            self.envelopes[args[-1]] += 1
            self._inside = True
            try:
                return real(*args)
            finally:
                self._inside = False
        monkeypatch.setattr(qp, "build_constraints", build_constraints)

    def spec(self, spec):
        real = spec.grad_u

        def grad_u(x, u):
            if not self._inside:
                self.grad_u[spec.label][(tuple(x), tuple(u))] += 1
            return real(x, u)
        return dataclasses.replace(spec, grad_u=grad_u)

    def wrap_phi(self, phi):
        def counted(x, u):
            self.phi += 1
            return phi(x, u)
        return counted


@pytest.mark.parametrize("times,distinct", [(None, 3), ([0.0, 5.0, 0.0, 5.0], 2), ([4.0], 1)])
def test_check_evaluates_each_point_once_and_each_envelope_once(monkeypatch, times, distinct):
    counts = _Counts(monkeypatch)
    chain = _partly_free_chain()
    chain = dataclasses.replace(chain, levels=tuple(counts.spec(lv) for lv in chain.levels))
    phi = counts.wrap_phi(lambda x, u: np.zeros(2))
    resolution = [5, 5, 3, 3]
    points = 5 * 5 * 3 * 3
    check_validity(chain, _two_input_model(), phi, BOX2, resolution,
                   obs_cfg=_observer(3.0, 0.5), times=times)
    # the top level is evaluated exactly once at every point, level 0 at most once
    assert len(counts.grad_u["b1"]) == points
    assert set(counts.grad_u["b1"].values()) == {1}
    assert set(counts.grad_u["b0"].values()) == {1}
    # phi once and one assembly per distinct envelope at each input-free point
    free = points // 5  # the x1 = 0 slice
    assert counts.phi == free
    assert counts.builds == free * distinct
    assert len(counts.envelopes) == distinct
    assert set(counts.envelopes.values()) == {free}


def test_check_assembles_once_per_input_free_point_on_bicycle(monkeypatch):
    # bicycle's envelope is 0 at all three default times: one assembly each
    counts = _Counts(monkeypatch)
    sc = build_bicycle()
    chain = dataclasses.replace(sc.chain, levels=tuple(counts.spec(lv) for lv in sc.chain.levels))
    phi = counts.wrap_phi(lambda x, u: (0.0,))
    check_validity(chain, sc.model, phi, sc.check_box, 3, obs_cfg=sc.obs_cfg)
    assert [error_envelope(sc.obs_cfg, t) for t in (0.0, 10.0, 200.0)] == [0.0] * 3
    for label in sc.chain.labels:
        assert set(counts.grad_u[label].values()) == {1}
    assert len(counts.grad_u["b2"]) == 3 ** 5
    assert counts.phi > 0
    assert counts.builds == counts.phi


def test_plain_check_evaluates_each_gradient_once_per_point(monkeypatch):
    counts = _Counts(monkeypatch)
    sc = build_example1()
    specs = [counts.spec(s) for s in sc.barriers]
    phi = counts.wrap_phi(lambda x, u: (0.0,))
    report = check_validity(specs, sc.model, phi, sc.check_box, 9, obs_cfg=sc.obs_cfg,
                            times=[0.0, 1.0])
    for spec in sc.barriers:
        assert len(counts.grad_u[spec.label]) == 81
        assert set(counts.grad_u[spec.label].values()) == {1}
    assert counts.builds == counts.phi  # example1's envelope is 0 at every time
    assert not report.valid
