"""Fixed-step integration of the augmented closed loop, with trajectory logging.

The integrated stack is z = (x, u, r):

    xdot = F(x,u) + ell(x) d_true(t)
    udot = phi + v*          (frozen over each step; zero-order hold)
    rdot = -beta L_d(x) (F(x,u) + ell(x) d_hat)

The nominal rate phi and the correction v* are computed once per step from
the state at the step start; the plant and observer parts are integrated with
classical RK4 sampling the live state (and d_true) at the stage points. The
filter mode gates what the correction sees:

    off        v* = 0 (nominal law runs unprotected)
    icbf       v* computed with d_hat = 0 and margins zeroed (non-robust form)
    do_icbf    full estimate + margin
    high_order same as do_icbf (the constraint set is defined by the scenario)

The observer itself always runs, whatever the mode, so its estimate can be
logged and compared across modes.
"""

from __future__ import annotations

import copy
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierChain, BarrierSpec, DomainBox, require_values
from .errors import BlowupError, ConfigurationError
from .filter import build_constraints, solve_1d, solve_multi
from .model import Array, SystemModel, _as_vector
from .observer import ObserverConfig, error_envelope

FILTER_MODES = ("off", "icbf", "do_icbf", "high_order")
# A run's packed log rows go to its spool file through a write buffer of this
# many bytes, so a run holds at most one chunk of its log in memory, whatever t_end.
LOG_CHUNK_BYTES = 64 * 1024


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one closed-loop run."""

    dt: float = 1e-3
    t_end: float = 50.0
    log_stride: int = 1
    filter_mode: str = "do_icbf"

    def __post_init__(self):
        if isinstance(self.dt, (bool, np.bool_)) or not 0.0 < self.dt < math.inf:  # rejects NaN
            raise ConfigurationError(f"dt must be finite and > 0, got {self.dt}")
        if isinstance(self.t_end, (bool, np.bool_)) or not self.dt <= self.t_end < math.inf:
            raise ConfigurationError(f"t_end must be finite and >= dt, got {self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigurationError(f"t_end / dt must be a finite step count, got "
                                     f"t_end={self.t_end}, dt={self.dt}")
        stride = self.log_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ConfigurationError(f"log_stride must be an integer >= 1, got {stride!r}")
        if self.filter_mode not in FILTER_MODES:
            raise ConfigurationError(
                f"filter_mode must be one of {FILTER_MODES}, got {self.filter_mode!r}"
            )


@dataclass
class Scenario:
    """A complete benchmark: plant, nominal law, barriers, observer, start point.

    A run starts from the plant state x0 (n values) and the input u0 (m
    values). The observer starts from a zero estimate, d_hat(0) = 0 (see
    start), so its initial error is at most k0, the envelope's E0.
    Construction, dataclasses.replace too, checks that q(x0) and d_true(0)
    have p entries, that the start lies in every protected set (barrier
    values at phi = 0, d_hat = 0 and E(0)) and, with fast_loop, the float
    kernel's checkable preconditions: m = p = 1 and a constant L_d."""

    model: SystemModel
    law: object  # nominal law with rate(t, x, u, dt) -> udot; each run takes a deep copy
    obs_cfg: ObserverConfig
    x0: Array
    u0: Array
    domain: DomainBox
    barriers: Sequence[BarrierSpec] = field(default_factory=tuple)
    chain: Optional[BarrierChain] = None
    designated_mode: str = "do_icbf"
    baseline_mode: str = "off"
    default_t_end: float = 50.0
    tracking_name: str = "final_state_norm"
    tracking_fn: Optional[Callable[["TrajectoryLog"], float]] = None
    check_box: Optional[DomainBox] = None
    check_resolution: object = 5
    # Opt-in float step kernel: m = p = 1 and a constant L_d, whose potential
    # is q = L_d x (both checked), a constant disturbance channel and barrier
    # callables that accept plain sequences. The builders in scenarios.py
    # qualify; custom scenarios keep the vector kernel unless they opt in.
    fast_loop: bool = False

    def __post_init__(self):
        self.x0 = _as_vector(self.x0, self.model.n, "x0")
        self.u0 = _as_vector(self.u0, self.model.m, "u0")
        self.start()  # q(x0) must have p entries
        _as_vector(self.model.d_true(0.0), self.model.p, "d_true(0)")
        for role, box in (("domain", self.domain), ("check_box", self.check_box or self.domain)):
            box.require_dims(self.model.n, self.model.m, role)
        require_values(self.barriers, "plain barrier")
        labels = self.value_labels
        repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
        if repeated:
            raise ConfigurationError(f"barrier labels must be distinct, repeated: {repeated}")
        model, obs = self.model, self.obs_cfg
        if self.fast_loop:
            if model.m != 1 or model.p != 1:
                raise ConfigurationError("fast_loop (the float kernel) needs m = p = 1")
            if callable(obs.L_d):
                raise ConfigurationError("fast_loop (the float kernel) needs a constant L_d")
        with np.errstate(all="ignore"):  # what overflows is refused below, not warned of
            _, values, _ = build_constraints(
                model, self.barriers, self.chain, np.zeros(model.m), self.x0, self.u0,
                np.zeros(model.p), error_envelope(obs, 0.0))
        bad = {k: v for k, v in values.items() if not 0.0 <= v < math.inf}  # NaN too
        if bad:
            raise ConfigurationError(f"initial state is outside the safe set: {bad} "
                                     "(all barrier values must be finite and >= 0)")

    def start(self) -> Array:
        """The augmented start state z0 = (x0, u0, r0) with r0 = -beta q(x0),
        so that the observer's estimate d_hat(0) = r0 + beta q(x0) is zero."""
        obs = self.obs_cfg
        q0 = _as_vector(obs.q(self.x0), self.model.p, "q(x0)")
        return np.concatenate((self.x0, self.u0, -obs.beta * q0))

    @property
    def value_labels(self) -> list:
        labels = list(self.chain.labels) if self.chain is not None else []
        labels += [b.label for b in self.barriers]
        return labels

    @property
    def constraint_labels(self) -> list:
        labels = [b.label for b in self.barriers]
        if self.chain is not None:
            labels.append(self.chain.levels[self.chain.m].label)
        return labels


class TrajectoryLog:
    """Time-indexed record of one run; column layout is fixed by the header.
    `rows` is a (rows, columns) float64 array, one row per logged step: a
    read-only memmap of `spool`, the unnamed temporary file the loop writes
    every row to through one buffer of LOG_CHUNK_BYTES; run_closed_loop
    maps it once the loop ends, and no log it returns is empty. close()
    closes the spool; `rows` stays readable, but write_csv needs the spool.
    `fold` holds what run_closed_loop folds over every step it decides,
    logged or not, keyed as summarize reports it."""

    def __init__(self, scenario: Scenario, cfg: SimConfig):
        n, m, p = scenario.model.n, scenario.model.m, scenario.model.p
        self.header = (
            ["t"]
            + [f"x{i}" for i in range(n)]
            + [f"u{i}" for i in range(m)]
            + [f"phi{i}" for i in range(m)]
            + [f"vstar{i}" for i in range(m)]
            + [f"d{i}" for i in range(p)]
            + [f"dhat{i}" for i in range(p)]
            + [f"b_{lab}" for lab in scenario.value_labels]
            + [f"slack_{lab}" for lab in scenario.constraint_labels]
            + ["c_margin", "infeasible"]
        )
        self.spool = None
        self.halt_reason = "completed"
        self.halt_message = ""
        self.filter_mode = cfg.filter_mode
        self.dt = cfg.dt
        self.fold: dict = {}

    def close(self) -> None:
        """Close the spool; calling it again does nothing."""
        if self.spool is not None:
            self.spool.close()

    def write_csv(self, path) -> None:
        """UTF-8 CSV, floats at 17 significant digits, '\\n' line endings.
        The spool is read back one chunk of whole rows at a time with
        os.pread, never through the memmap, whose pages would stay resident."""
        width = len(self.header)
        line = ",".join(["%.17g"] * width) + "\n"
        size = max(1, LOG_CHUNK_BYTES // (8 * width)) * 8 * width
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.header) + "\n")
            for offset in range(0, self.rows.nbytes, size):
                block = os.pread(self.spool.fileno(), size, offset)
                fh.writelines(map(line.__mod__, struct.iter_unpack(f"{width}d", block)))


def rk4_step(rhs: Callable[[float, Array], Array], t: float, z: Array, dt: float) -> Array:
    """Classical 4-stage Runge-Kutta update; raises BlowupError on non-finite values."""
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    k1 = rhs(t, z)
    k2 = rhs(t + 0.5 * dt, z + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, z + (0.5 * dt) * k2)
    k4 = rhs(t + dt, z + dt * k3)
    # dt > 0, so z_next is non-finite wherever the stage sum is
    z_next = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(z_next).all():
        raise BlowupError(t)
    return z_next


def run_closed_loop(scenario: Scenario, cfg: SimConfig) -> TrajectoryLog:
    """Integrate the augmented loop and log every log_stride-th step, the
    last decided step and any infeasible one.

    After step 0 is decided, a run halts early with its partial log, on
    either kernel, on filter infeasibility, a non-finite state ("blowup") or
    any other Exception but an OSError ("error", message in halt_message);
    before it, such an error propagates, so no log returned is empty. The
    same scenario + config always gives the same log: no randomness, no
    state shared between runs.

    The loop owns the time grid, the domain-exit flag, the log rows, the
    safety fold and the halts. A step kernel supplies each step: decide(t,
    z, E(t)) returns the record (infeasible, phi, v_star, d_hat, values,
    slacks, margin), where values follow Scenario.value_labels and every
    field but infeasible and margin is a float sequence; advance(t, z, phi,
    v_star) returns the next state with udot = phi + v_star held over the
    step, or raises BlowupError. Scenarios flagged fast_loop take the float
    kernel, all others the vector kernel.

    Every run writes each packed row to its spool, an unnamed temporary
    file made before the first step (tempfile's choice of directory:
    $TMPDIR, else /tmp, which must be writable), through one buffer of
    LOG_CHUNK_BYTES, so a run holds at most one chunk of its log in memory.
    A spool that cannot be made or written raises its OSError. Any exception
    that does not halt the run closes the spool before it propagates.
    """
    law = copy.deepcopy(scenario.law)
    make_kernel = _float_kernel if scenario.fast_loop else _vector_kernel
    z, decide, advance = make_kernel(scenario, law, cfg)
    log = TrajectoryLog(scenario, cfg)
    width = len(log.header)
    spool = tempfile.TemporaryFile(buffering=LOG_CHUNK_BYTES)
    write = spool.write
    pack = struct.Struct(f"{width}d").pack  # one row's bytes; checks its width
    box = scenario.domain
    lo = [float(v) for v in np.concatenate([box.x_low, box.u_low])]
    hi = [float(v) for v in np.concatenate([box.x_high, box.u_high])]
    nm = len(lo)  # z[:n + m] is (x, u)
    left_domain = False
    d_true = scenario.model.d_true
    obs = scenario.obs_cfg
    labels = scenario.value_labels
    mins = [math.inf] * len(labels)
    by_label = range(len(labels))
    excess = -math.inf
    v_sq = 0.0
    e_d0 = t_last = math.nan
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    stride = cfg.log_stride
    logged = True  # whether the last decided step has its row

    try:
        for k in range(n_steps + 1):
            t = k * dt
            envelope = error_envelope(obs, t)
            d_now = d_true(t).tolist()
            infeasible, phi, v_star, d_hat, values, slacks, margin = decide(t, z, envelope)
            # Step k is decided; its row's fields stay in hand until step k + 1 is.
            d, z_k, t_last, logged = d_now, z, t, False
            err = math.dist(d_hat, d)
            if k == 0:
                e_d0 = err
            if err - envelope > excess:
                excess = err - envelope
            for v in v_star:
                v_sq += v * v
            for i in by_label:
                v = values[i]
                if v < mins[i]:
                    mins[i] = v
            if not left_domain:
                for lo_i, z_i, hi_i in zip(lo, z, hi):
                    if not lo_i <= z_i <= hi_i:
                        left_domain = True
                        break
            if k % stride == 0 or infeasible or k == n_steps:
                write(pack(t, *z[:nm], *phi, *v_star, *d, *d_hat, *values, *slacks,
                           margin, 1.0 if infeasible else 0.0))
                logged = True
            if infeasible:
                log.halt_reason = "infeasible"
                break
            if k == n_steps:
                break
            z = advance(t, z, phi, v_star)
    except BlowupError:
        log.halt_reason = "blowup"
    except Exception as exc:
        if isinstance(exc, OSError) or math.isnan(t_last):  # I/O, or no row to halt on
            spool.close()
            raise
        log.halt_reason, log.halt_message = "error", f"t={t:.6g}: {exc}"
    except BaseException:
        spool.close()
        raise
    if not logged:  # a blowup or error halt: the log ends at the last decided step
        write(pack(t_last, *z_k[:nm], *phi, *v_star, *d, *d_hat, *values, *slacks,
                   margin, 0.0))
    spool.flush()
    log.spool = spool
    log.rows = np.memmap(spool, dtype=np.float64, mode="r").reshape(-1, width)
    log.fold = {"barrier_min": dict(zip(labels, mins)), "envelope_violation_max": excess,
                "correction_effort": float(v_sq * dt), "left_domain_box": left_domain,
                "t_final": t_last, "e_d0_true": e_d0, "e_d0_bound": float(obs.bounds.k0)}
    return log


def _vector_kernel(scenario: Scenario, law, cfg: SimConfig) -> tuple:
    """Step kernel on numpy vectors for any scenario: build_constraints,
    solve_multi and rk4_step.

    Returns (z0, decide, advance) as run_closed_loop describes them.
    """
    model = scenario.model
    n, m, p = model.n, model.m, model.p
    obs = scenario.obs_cfg
    beta = obs.beta
    q = obs.q
    gain_at = obs.gain_at
    F = model.F
    ell = model.ell
    d_true = model.d_true
    filter_on = cfg.filter_mode != "off"
    margins = cfg.filter_mode in ("do_icbf", "high_order") or not filter_on
    zero_d = np.zeros(p)
    v_star_zero = np.zeros(m)
    dt = cfg.dt
    value_labels = scenario.value_labels
    barriers = scenario.barriers
    chain = scenario.chain

    def decide(t, z, envelope):
        x = z[:n]
        u = z[n:n + m]
        d_hat_obs = z[n + m:] + beta * q(x)
        phi = _as_vector(law.rate(t, x, u, dt), m, "rate")
        constraints, values, margin = build_constraints(
            model, barriers, chain, phi, x, u, d_hat_obs if margins else zero_d,
            envelope if margins else 0.0)
        infeasible, v_star = False, v_star_zero
        if filter_on and constraints:
            result = solve_multi(constraints)
            infeasible, v_star = result.infeasible, result.v_star
        return (infeasible, phi, v_star, d_hat_obs, [values[lab] for lab in value_labels],
                [c.slack(v_star) for c in constraints], margin)

    def advance(t, z, phi, v_star):
        u_rate = phi + v_star

        def rhs(tt: float, zz: Array) -> Array:
            xx = zz[:n]
            fx = np.asarray(F(xx, zz[n:n + m]), dtype=float)
            lx = np.asarray(ell(xx))
            d_hat = zz[n + m:] + beta * q(xx)
            return np.concatenate((fx + lx.dot(d_true(tt)), u_rate,
                                   -beta * np.asarray(gain_at(xx)).dot(fx + lx.dot(d_hat))))

        return rk4_step(rhs, t, z, dt)

    return scenario.start(), decide, advance


def _float_kernel(scenario: Scenario, law, cfg: SimConfig) -> tuple:
    """Step kernel on plain floats, with the formulas of the vector kernel.

    Checked when the Scenario is made: m = p = 1 and a constant gain L_d,
    whose potential q = L_d x this kernel sums itself. Vouched for by fast_loop=True and not
    checked: a constant channel column ell, read once at x0, and barrier
    callables that accept plain sequences. The state is a list; otherwise
    as _vector_kernel, down to the one rate read from the law and what F or
    d_true raise. Its sums round each product and each sum, where numpy's
    float64 dot of a vector, or of a one-row matrix, is a chain of fused
    multiply-adds with OpenBLAS on x86-64, which Python 3.11 floats cannot
    express (math.fma is 3.13); with its RK4 combination grouped otherwise
    too, the two kernels agree to ~1e-12, not bit for bit, and tests pin
    each one separately.
    """
    model = scenario.model
    n = model.n
    obs = scenario.obs_cfg
    ell0 = np.asarray(model.ell(scenario.x0), dtype=float)
    ellc = tuple(float(v) for v in ell0[:, 0])
    gain = tuple(float(v) for v in np.atleast_2d(obs.L_d)[0])
    beta = obs.beta
    F = model.F
    d_true = model.d_true
    filter_on = cfg.filter_mode != "off"
    margins = cfg.filter_mode in ("do_icbf", "high_order") or not filter_on
    dt = cfg.dt

    def source(levels, slot):
        """(constraint slot, h0, lower levels, top level), each level
        (grad_x, grad_u, gamma); as in build_constraints, a plain barrier is
        the chain with no lower level."""
        fns = [(lv.grad_x, lv.grad_u, lv.gamma) for lv in levels]
        return slot, levels[0].h, tuple(fns[:-1]), fns[-1]

    # In value order, chain levels first; the constraints go plain barriers
    # first, so each is inserted at its slot.
    sources = [source(scenario.chain.levels, 0)] if scenario.chain is not None else []
    sources += [source((s,), i) for i, s in enumerate(scenario.barriers)]
    rng_n = range(n)
    rng_z = range(n + 2)
    idx_u = n
    idx_r = n + 1

    def lie(gx, drift):
        """(grad . drift, grad . ell), summed in index order."""
        dot = 0.0
        row = 0.0
        for i in rng_n:
            g = gx[i]
            dot += g * drift[i]
            row += g * ellc[i]
        return dot, row

    def decide(t, z, envelope):
        x = z[:n]
        u = z[idx_u:idx_r]
        q_val = 0.0
        for i in rng_n:
            q_val += gain[i] * x[i]
        d_hat_obs = z[idx_r] + beta * q_val
        d_hat = d_hat_obs if margins else 0.0
        (phi,) = law.rate(t, x, u, dt)
        phi = float(phi)
        if not margins:
            envelope = 0.0
        fx = F(x, u)
        drift = [fx[i] + ellc[i] * d_hat for i in rng_n]
        cons = []  # (p, rhs) of each constraint
        values = []
        margin_max = 0.0
        for slot, h0, lower, (gx_fn, gu_fn, gamma) in sources:
            values.append(float(h0(x, u)))
            below = None  # grad . ell of the level below the top
            for lgx_fn, lgu_fn, lgamma in lower:
                dot, below = lie(lgx_fn(x, u), drift)
                values.append(dot + float(lgu_fn(x, u)[0]) * phi + lgamma(values[-1])
                              - abs(below) * envelope)
            p_val = float(gu_fn(x, u)[0])
            dot, row = lie(gx_fn(x, u), drift)
            margin = abs(row if below is None else below) * envelope
            margin_max = max(margin_max, margin)
            cons.insert(slot, (p_val, -(dot + p_val * phi + gamma(values[-1])) + margin))
        v_star = solve_1d(cons) if filter_on else 0.0
        infeasible = v_star is None
        if infeasible:
            v_star = 0.0
        return (infeasible, (phi,), (v_star,), (d_hat_obs,), values,
                [p_val * v_star - rhs for p_val, rhs in cons], margin_max)

    def advance(t, z, phi, v_star):
        u_rate = phi[0] + v_star[0]

        def f_aug(tt, zz):
            xx = zz[:n]
            fx_s = F(xx, zz[idx_u:idx_r])
            dv = float(d_true(tt)[0])
            qv = 0.0
            for i in rng_n:
                qv += gain[i] * xx[i]
            dh = zz[idx_r] + beta * qv
            rdot = 0.0
            out = [0.0] * (n + 2)
            for i in rng_n:
                fi = fx_s[i]
                out[i] = fi + ellc[i] * dv
                rdot += gain[i] * (fi + ellc[i] * dh)
            out[idx_u] = u_rate
            out[idx_r] = -beta * rdot
            return out

        k1 = f_aug(t, z)
        hh = 0.5 * dt
        k2 = f_aug(t + hh, [z[i] + hh * k1[i] for i in rng_z])
        k3 = f_aug(t + hh, [z[i] + hh * k2[i] for i in rng_z])
        k4 = f_aug(t + dt, [z[i] + dt * k3[i] for i in rng_z])
        sixth = dt / 6.0
        z = [z[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in rng_z]
        if not all(map(math.isfinite, z)):
            raise BlowupError(t)
        return z

    return [float(v) for v in scenario.start()], decide, advance


def summarize(log: TrajectoryLog, scenario: Optional[Scenario] = None) -> dict:
    """Metrics of a run: the loop's fold over every decided step, which does
    not depend on log_stride, with the halt, the row count and tracking."""
    metrics = dict(log.fold, halt_reason=log.halt_reason, steps_logged=len(log.rows))
    metrics["unsafe"] = any(v < -1e-3 for v in log.fold["barrier_min"].values())
    if scenario is not None and scenario.tracking_fn is not None:
        metrics["tracking"] = {scenario.tracking_name: float(scenario.tracking_fn(log))}
    return metrics
