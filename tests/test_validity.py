"""The grid validity checker against its plain per-point reference scan, and
the work it does per point and per time."""

import collections
import dataclasses

import numpy as np
import pytest

from do_icbf import (BarrierChain, BarrierSpec, ConfigurationError,
                     DisturbanceBounds, DomainBox, ObserverConfig, SplitMix64, SystemModel,
                     ValidityReport, build_acc, build_bicycle, build_example1,
                     check_validity, error_envelope, filter as qp, linear_rate,
                     sinusoid_disturbance)

from oracles import reference_check_validity

GAM = linear_rate(1.0)
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
    return ObserverConfig(beta=1.0, L_d=np.array([[1.0, 0.0]]), mu1=1.0,
                          bounds=DisturbanceBounds(e0, k1))


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
    chain = _partly_free_chain()
    if kind == "free-top-chain":  # no level has input authority anywhere
        b0, b1 = chain.levels
        chain = BarrierChain(levels=(b0, dataclasses.replace(
            b1, grad_u=lambda x, u: np.zeros(2))))
    return chain, _two_input_model(), obs, BOX2, 4


KINDS = ("acc-chain", "acc-force", "acc-sinusoid", "bicycle", "example1", "example1-scalar",
         "two-input", "partly-free-chain", "free-top-chain")


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


def _one_sided_barrier() -> BarrierSpec:
    """h = 2 - x0 - max(x0, 0) u0: input authority only where x0 > 0, so
    blocks of the state grid differ in relative degree."""
    return BarrierSpec(h=lambda x, u: 2.0 - x[0] - max(x[0], 0.0) * u[0], gamma=GAM,
                       grad_x=lambda x, u: np.array([-1.0 - (u[0] if x[0] > 0.0 else 0.0), 0.0]),
                       grad_u=lambda x, u: np.array([-max(x[0], 0.0), 0.0]), label="h")


def _split_case(kind: str) -> tuple:
    """(target, model, obs_cfg, box, resolution, times) of one split case."""
    if kind in ("acc-chain", "acc-force"):
        sc = build_acc()
        target = sc.chain if kind == "acc-chain" else list(sc.barriers)
        return target, sc.model, sc.obs_cfg, sc.check_box, [3, 5, 7, 7], None
    if kind == "bicycle":
        sc = build_bicycle()
        return sc.chain, sc.model, sc.obs_cfg, sc.check_box, 9, None
    if kind == "example1":  # 5 states: K = 7 leaves two blocks empty
        sc = build_example1()
        return list(sc.barriers), sc.model, sc.obs_cfg, sc.check_box, [5, 9], [0.0, 1.0]
    target = _partly_free_chain() if kind == "partly-free-chain" else _one_sided_barrier()
    return target, _two_input_model(), _observer(1.5, 0.5), BOX2, 5, [0.0, 8.0, 0.0]


@pytest.mark.parametrize("kind", ["acc-chain", "acc-force", "bicycle", "example1",
                                  "partly-free-chain", "one-sided"])
def test_block_reports_merge_into_the_whole_grid_report(kind):
    target, model, obs, box, resolution, times = _split_case(kind)

    def phi(x, u):
        return np.array([0.5 * x[0]] * model.m)

    whole = check_validity(target, model, phi, box, resolution, obs_cfg=obs, times=times)
    for parts in (1, 2, 3, 7):
        blocks = [check_validity(target, model, phi, box, resolution, obs_cfg=obs, times=times,
                                 block=(k, parts)) for k in range(parts)]
        assert ValidityReport.merge(blocks) == whole, parts
    # the merge has counterexamples to order, and degrees to take the least of
    assert bool(whole.counterexamples) == (kind not in ("acc-chain", "acc-force"))
    if kind == "one-sided":
        assert [b.relative_degree for b in blocks] == [1, 1, 1, 1, 0, 0, 0]
    for bad in ((2, 2), (-1, 2), (0, 0)):
        with pytest.raises(ConfigurationError, match="block"):
            check_validity(target, model, phi, box, resolution, obs_cfg=obs, block=bad)


class _Counts:
    """Wraps the specs of a target, phi, constraint_terms and fold_terms.
    Counts each input-gradient call made outside constraint_terms per point,
    and records the envelopes folded on the terms of each pass, which must
    be the terms of the latest pass."""

    def __init__(self, monkeypatch):
        self.grad_u = collections.defaultdict(collections.Counter)  # label -> (x, u) -> calls
        self.phi = 0
        self.folds = []  # one list of folded envelopes per constraint_terms pass
        self._inside = False
        self._terms = None
        real_terms, real_fold = qp.constraint_terms, qp.fold_terms

        def constraint_terms(*args):
            self._inside = True
            try:
                self._terms = real_terms(*args)
            finally:
                self._inside = False
            self.folds.append([])
            return self._terms

        def fold_terms(terms, envelope):
            assert terms is self._terms
            self.folds[-1].append(envelope)
            return real_fold(terms, envelope)

        def build_constraints(*args):
            raise AssertionError("the check assembles through constraint_terms and fold_terms")
        monkeypatch.setattr(qp, "constraint_terms", constraint_terms)
        monkeypatch.setattr(qp, "fold_terms", fold_terms)
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
    obs = _observer(3.0, 0.5)
    check_validity(chain, _two_input_model(), phi, BOX2, resolution, obs_cfg=obs, times=times)
    # the top level is evaluated exactly once at every point, level 0 at most once
    assert len(counts.grad_u["b1"]) == points
    assert set(counts.grad_u["b1"].values()) == {1}
    assert set(counts.grad_u["b0"].values()) == {1}
    # at each input-free point phi and the envelope-free pass run once, and
    # the pass is folded once at each distinct envelope, in order of the times
    free = points // 5  # the x1 = 0 slice
    assert counts.phi == free
    assert len(counts.folds) == free
    envelopes = list(dict.fromkeys(error_envelope(obs, t) for t in times or
                                   [0.0, 5.0 / obs.lam, 100.0 / obs.lam]))
    assert len(envelopes) == distinct
    assert all(folded == envelopes for folded in counts.folds)


def test_check_assembles_once_per_input_free_point_on_bicycle(monkeypatch):
    # bicycle's envelope is 0 at all three default times: one fold each
    sc = build_bicycle()  # before the counters: building assembles the start point
    counts = _Counts(monkeypatch)
    chain = dataclasses.replace(sc.chain, levels=tuple(counts.spec(lv) for lv in sc.chain.levels))
    phi = counts.wrap_phi(lambda x, u: (0.0,))
    check_validity(chain, sc.model, phi, sc.check_box, 3, obs_cfg=sc.obs_cfg)
    assert [error_envelope(sc.obs_cfg, t) for t in (0.0, 10.0, 200.0)] == [0.0] * 3
    for label in sc.chain.labels:
        assert set(counts.grad_u[label].values()) == {1}
    assert len(counts.grad_u["b2"]) == 3 ** 5
    assert counts.phi > 0
    assert counts.folds == [[0.0]] * counts.phi


def test_plain_check_evaluates_each_gradient_once_per_point(monkeypatch):
    sc = build_example1()  # before the counters: building assembles the start point
    counts = _Counts(monkeypatch)
    specs = [counts.spec(s) for s in sc.barriers]
    phi = counts.wrap_phi(lambda x, u: (0.0,))
    report = check_validity(specs, sc.model, phi, sc.check_box, 9, obs_cfg=sc.obs_cfg,
                            times=[0.0, 1.0])
    for spec in sc.barriers:
        assert len(counts.grad_u[spec.label]) == 81
        assert set(counts.grad_u[spec.label].values()) == {1}
    # example1's envelope is 0 at every time: one pass and one fold per
    # input-free barrier at a point
    assert counts.folds == [[0.0]] * counts.phi
    assert not report.valid
