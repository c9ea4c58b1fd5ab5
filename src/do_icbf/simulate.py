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
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierChain, BarrierSpec, DomainBox, require_values
from .errors import BlowupError, ConfigurationError, ContractViolationError
from .filter import build_constraints, solve_1d, solve_multi
from .model import Array, AugmentedState, SystemModel, _as_vector
from .observer import ObserverConfig, error_envelope

FILTER_MODES = ("off", "icbf", "do_icbf", "high_order")
# A run holds at most this many bytes of packed log rows in memory: each
# full chunk moves to the run's spool file, so memory does not grow with t_end.
LOG_CHUNK_BYTES = 64 * 1024


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one closed-loop run."""

    dt: float = 1e-3
    t_end: float = 50.0
    log_stride: int = 1
    filter_mode: str = "do_icbf"

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # also rejects NaN
            raise ConfigurationError(f"dt must be finite and > 0, got {self.dt}")
        if not self.dt <= self.t_end < math.inf:
            raise ConfigurationError(f"t_end must be finite and >= dt, got {self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigurationError(f"t_end / dt must be a finite step count, got "
                                     f"t_end={self.t_end}, dt={self.dt}")
        if self.log_stride < 1:
            raise ConfigurationError(f"log_stride must be >= 1, got {self.log_stride}")
        if self.filter_mode not in FILTER_MODES:
            raise ConfigurationError(
                f"filter_mode must be one of {FILTER_MODES}, got {self.filter_mode!r}"
            )


@dataclass
class Scenario:
    """A complete benchmark: plant, nominal law, barriers, observer, start point."""

    name: str
    model: SystemModel
    law: object  # nominal law with rate(t, x, u, dt) -> udot; each run takes a deep copy
    obs_cfg: ObserverConfig
    initial: AugmentedState
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
    # Opt-in float step kernel: requires m = p = 1, a constant disturbance
    # channel and observer gain, the default potential q = L_d x, and barrier
    # callables that accept plain sequences. The builders in scenarios.py
    # qualify; custom scenarios keep the vector kernel unless they opt in.
    fast_loop: bool = False

    def __post_init__(self):
        for name, size in (("x", self.model.n), ("u", self.model.m), ("r", self.model.p)):
            _as_vector(getattr(self.initial, name), size, f"initial.{name}")
        require_values(self.barriers, "plain barrier")
        labels = self.value_labels
        repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
        if repeated:
            raise ConfigurationError(f"barrier labels must be distinct, repeated: {repeated}")

    def validate_initial(self) -> None:
        """The start point must lie in every protected set (filters only keep
        you inside a set you start in)."""
        x0, u0, r0 = self.initial.x, self.initial.u, self.initial.r
        d_hat0 = r0 + self.obs_cfg.beta * self.obs_cfg.q_fn(x0)
        phi0 = np.zeros(self.model.m)
        _, values, _ = build_constraints(
            self.model, self.barriers, self.chain, phi0, x0, u0, d_hat0,
            error_envelope(self.obs_cfg, 0.0))
        bad = {k: v for k, v in values.items() if not v >= 0.0}  # NaN too
        if bad:
            raise ConfigurationError(
                f"initial state is outside the safe set: {bad} (all barrier values must be >= 0)"
            )

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
    view of the loop's buffer for a log of less than one chunk
    (LOG_CHUNK_BYTES), else a read-only memmap of `spool`, the unnamed
    temporary file the loop moved the rows to one chunk at a time.
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
        self.rows = np.empty((0, len(self.header)))
        self.spool = None
        self.halt_reason = "completed"
        self.halt_message = ""
        self.scenario_name = scenario.name
        self.filter_mode = cfg.filter_mode
        self.dt = cfg.dt
        self.fold: dict = {}

    def write_csv(self, path) -> None:
        """UTF-8 CSV, floats at 17 significant digits, '\\n' line endings.
        A spooled log is read back one chunk at a time with os.pread, never
        through the memmap, whose pages would stay resident."""
        width = len(self.header)
        line = ",".join(["%.17g"] * width) + "\n"
        if self.spool is None:
            blocks = [self.rows]
        else:
            size = _chunk_rows(width) * 8 * width
            blocks = (os.pread(self.spool.fileno(), size, offset)
                      for offset in range(0, self.rows.nbytes, size))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.header) + "\n")
            for block in blocks:
                fh.writelines(map(line.__mod__, struct.iter_unpack(f"{width}d", block)))


def _chunk_rows(width: int) -> int:
    """Rows of `width` float64 values in one chunk of the log."""
    return max(1, LOG_CHUNK_BYTES // (8 * width))


def _spill(rows: array, spool):
    """Append the packed rows to the spool, created as an unnamed temporary
    file at the first spill, and empty the buffer; returns the spool."""
    if spool is None:
        import tempfile  # here, so that importing the package never loads it

        spool = tempfile.TemporaryFile()
    rows.tofile(spool)
    del rows[:]
    return spool


def rk4_step(rhs: Callable[[float, Array], Array], t: float, z: Array, dt: float) -> Array:
    """Classical 4-stage Runge-Kutta update; raises BlowupError on non-finite values."""
    if dt <= 0.0:
        raise ContractViolationError(f"dt must be > 0, got {dt}")
    k1 = rhs(t, z)
    k2 = rhs(t + 0.5 * dt, z + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, z + (0.5 * dt) * k2)
    k4 = rhs(t + dt, z + dt * k3)
    accum = k1 + 2.0 * k2 + 2.0 * k3 + k4
    z_next = z + (dt / 6.0) * accum
    if not (np.isfinite(accum).all() and np.isfinite(z_next).all()):
        raise BlowupError(t)
    return z_next


def run_closed_loop(scenario: Scenario, cfg: SimConfig) -> TrajectoryLog:
    """Integrate the augmented loop and log every log_stride-th step, the
    last decided step and any infeasible one.

    Halts early, with the reason recorded, on filter infeasibility, numerical
    blow-up or any other ValueError/ArithmeticError raised during a step
    ("error", with the message in halt_message). Identical scenario + config
    always produce an identical log: there is no randomness and no shared
    state between runs.

    The loop owns the time grid, the domain-exit flag, the log rows, the
    safety fold and the halts. A step kernel supplies each step: decide(t,
    z, E(t)) returns the record (infeasible, phi, v_star, d_hat, values,
    slacks, margin), where values follow Scenario.value_labels and every
    field but infeasible and margin is a float sequence; advance(t, z, phi,
    v_star) returns the next state with udot = phi + v_star held over the
    step, or raises BlowupError. Scenarios flagged fast_loop take the float
    kernel, all others the vector kernel.

    The loop packs each logged row into one buffer and holds at most one
    chunk (LOG_CHUNK_BYTES) of rows in memory: each time the buffer is full,
    its rows are appended to the run's spool, an unnamed temporary file
    made at the first spill (in $TMPDIR, else /tmp), and the buffer is
    emptied. A log that never fills a chunk never touches the disk.
    """
    law = copy.deepcopy(scenario.law)
    make_kernel = _float_kernel if scenario.fast_loop else _vector_kernel
    z, decide, advance = make_kernel(scenario, law, cfg)
    log = TrajectoryLog(scenario, cfg)
    width = len(log.header)
    rows = array("d")  # the logged rows not yet spooled, packed one after another
    chunk = _chunk_rows(width) * width  # values in a full chunk
    spool = None
    pack = struct.Struct(f"{width}d").pack  # one row's bytes; checks its width
    box = scenario.domain
    lo = [float(v) for v in np.concatenate([box.x_low, box.u_low])]
    hi = [float(v) for v in np.concatenate([box.x_high, box.u_high])]
    xu = range(len(lo))  # z[:n + m] is (x, u)
    nm = len(lo)
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
                for i in xu:
                    if not lo[i] <= z[i] <= hi[i]:
                        left_domain = True
                        break
            if k % stride == 0 or infeasible or k == n_steps:
                rows.frombytes(pack(t, *z[:nm], *phi, *v_star, *d, *d_hat, *values, *slacks,
                                    margin, 1.0 if infeasible else 0.0))
                logged = True
                if len(rows) == chunk:
                    spool = _spill(rows, spool)
            if infeasible:
                log.halt_reason = "infeasible"
                break
            if k == n_steps:
                break
            z = advance(t, z, phi, v_star)
    except BlowupError:
        log.halt_reason = "blowup"
    except (ValueError, ArithmeticError) as exc:
        log.halt_reason, log.halt_message = "error", f"t={t:.6g}: {exc}"
    if not logged:  # a blowup or error halt: the log ends at the last decided step
        rows.frombytes(pack(t_last, *z_k[:nm], *phi, *v_star, *d, *d_hat, *values, *slacks,
                            margin, 0.0))
    if spool is None:
        log.rows = np.frombuffer(rows).reshape(-1, width)  # a view, no copy
    else:
        _spill(rows, spool).flush()
        log.spool = spool
        log.rows = np.memmap(spool, dtype=np.float64, mode="r").reshape(-1, width)
    log.fold = {"barrier_min": dict(zip(labels, mins)), "envelope_violation_max": excess,
                "correction_effort": float(v_sq * dt), "left_domain_box": left_domain,
                "t_final": t_last, "e_d0_true": e_d0, "e_d0_bound": float(obs.e_d0_bound)}
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
    q_fn = obs.q_fn
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
        d_hat_obs = z[n + m:] + beta * q_fn(x)
        phi = np.asarray(law.rate(t, x, u, dt), dtype=float)
        constraints, values, margin = build_constraints(
            model, barriers, chain, phi, x, u, d_hat_obs if margins else zero_d,
            envelope if margins else 0.0)
        infeasible, v_star = False, v_star_zero
        if filter_on:
            result = solve_multi(constraints)
            infeasible, v_star = result.infeasible, result.v_star
        return (infeasible, phi, v_star, d_hat_obs, [values[lab] for lab in value_labels],
                [c.slack(v_star) for c in constraints], margin)

    def advance(t, z, phi, v_star):
        u_rate = phi + v_star

        def rhs(tt: float, zz: Array) -> Array:
            xx = zz[:n]
            fx = np.asarray(F(xx, zz[n:n + m]), dtype=float)
            lx = ell(xx)
            d_hat = zz[n + m:] + beta * q_fn(xx)
            out = np.empty(n + m + p)
            out[:n] = fx + lx @ d_true(tt)
            out[n:n + m] = u_rate
            out[n + m:] = -beta * (gain_at(xx) @ (fx + lx @ d_hat))
            return out

        return rk4_step(rhs, t, z, dt)

    return scenario.initial.as_vector(), decide, advance


def _float_kernel(scenario: Scenario, law, cfg: SimConfig) -> tuple:
    """Step kernel on plain floats, with the formulas of the vector kernel.

    Checked preconditions: m = p = 1 and a constant observer gain L_d.
    Vouched for by fast_loop=True and not checked: a constant channel column
    ell, which is read once at x0, and the default potential q = L_d x. The
    state is a list; otherwise as _vector_kernel, except that decide takes
    E(t) from the loop. Its sums and RK4 combination round differently from
    numpy's, so the two kernels agree to ~1e-12, not bit for bit, and tests
    pin each one separately.
    """
    model = scenario.model
    n = model.n
    if model.m != 1 or model.p != 1:
        raise ConfigurationError("fast_loop (the float kernel) needs m = p = 1")
    obs = scenario.obs_cfg
    if callable(obs.L_d) and not isinstance(obs.L_d, np.ndarray):
        raise ConfigurationError("fast_loop (the float kernel) needs a constant observer gain")
    ell0 = np.asarray(model.ell(scenario.initial.x), dtype=float)
    ellc = tuple(float(v) for v in ell0[:, 0])
    gain = tuple(float(v) for v in np.atleast_2d(np.asarray(obs.L_d, dtype=float))[0])
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
        fns = [(lv.grad_x, lv.grad_u, lv.gamma.fn) for lv in levels]
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
        phi = float(law.rate(t, x, u, dt)[0])
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

        try:
            k1 = f_aug(t, z)
            hh = 0.5 * dt
            k2 = f_aug(t + hh, [z[i] + hh * k1[i] for i in rng_z])
            k3 = f_aug(t + hh, [z[i] + hh * k2[i] for i in rng_z])
            k4 = f_aug(t + dt, [z[i] + dt * k3[i] for i in rng_z])
            sixth = dt / 6.0
            z = [z[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in rng_z]
        except (OverflowError, ValueError):
            raise BlowupError(t) from None
        if not all(map(math.isfinite, z)):
            raise BlowupError(t)
        return z

    return [float(v) for v in scenario.initial.as_vector()], decide, advance


def summarize(log: TrajectoryLog, scenario: Optional[Scenario] = None) -> dict:
    """Metrics of a run: the loop's fold over every decided step, which does
    not depend on log_stride, with the halt, the row count and tracking."""
    if not len(log.rows):
        raise ContractViolationError("cannot summarize an empty log")
    metrics = dict(log.fold, halt_reason=log.halt_reason, steps_logged=len(log.rows))
    metrics["unsafe"] = any(v < -1e-3 for v in log.fold["barrier_min"].values())
    if scenario is not None and scenario.tracking_fn is not None:
        metrics["tracking"] = {scenario.tracking_name: float(scenario.tracking_fn(log))}
    return metrics
