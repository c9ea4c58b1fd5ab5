"""Mutation probe: which one-line faults in the code that carries the safety
claim does the tier-1 suite notice?  Run it as  python tests/mutants.py

Each MUTANTS row is (label, file in src/do_icbf, old text, new text, why the
mutant is equivalent or None); each old text occurs exactly once in its file,
which tier 1 checks too. Each mutant, and an unmutated control, runs the
whole tier-1 suite in its own copy of src/ and tests/, in as many workers as
this process may use CPUs. Any failing test kills, except one that only
exceeds a wall-clock Budget, or a suite that outlasts TIMEOUT_S: a kill
resting on the clock is listed as budget_only and does not count. One line
per mutant names its first failing test, and the kill matrix (mutant ->
failing tests) goes to .mutants/matrix.json. Exit 1 when the control fails,
a mutant not marked equivalent survives, or one marked equivalent is killed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "do_icbf"
# It reads this table, which a mutated copy no longer matches.
TABLE_TEST = "tests/test_public_surface.py::test_each_mutant_edits_one_place"
TIMEOUT_S = 1800

F, O, S = "filter.py", "observer.py", "simulate.py"
MUTANTS = [
    ("drift without ell d_hat", F, "drift = fx + lx.dot(d_hat)", "drift = fx", None),
    ("lower rate without phi", F, "float(gx.dot(drift)) + float(gu.dot(phi))",
     "float(gx.dot(drift))", None),
    ("top rate without phi", F, "float(gx.dot(drift)) + float(p.dot(phi))",
     "float(gx.dot(drift))", None),
    ("lower level takes the top's gamma", F, "rate_i + gamma_i(b)", "rate_i + gamma(b)", None),
    ("no lower-level margin", F,
     "rate_i + gamma_i(b) - (0.0 if envelope == 0.0 else norm_i * envelope)",
     "rate_i + gamma_i(b)", None),
    ("deficit without gamma", F, "deficit = -(rate + gamma(b))", "deficit = -rate", None),
    ("no top margin", F, "margin = 0.0 if envelope == 0.0 else norm * envelope",
     "margin = 0.0", None),
    ("margin_max is the last margin", F, "margin_max = max(margin_max, margin)",
     "margin_max = margin", None),
    ("channel norm |sum| for the 2-norm", F, "return math.sqrt(row.dot(row))",
     "return abs(float(row.sum()))", None),
    ("float: drift without ell d_hat", S, "drift = [fx[i] + ellc[i] * d_hat for i in rng_n]",
     "drift = [fx[i] for i in rng_n]", None),
    ("float: lower rate without phi", S, "float(lgu_fn(x, u)[0]) * phi + ", "", None),
    ("float: top rate without phi", S, "-(dot + p_val * phi + gamma(values[-1]))",
     "-(dot + gamma(values[-1]))", None),
    ("float: lower level takes the top's gamma", S, "lgamma(values[-1])",
     "gamma(values[-1])", None),
    ("float: no lower-level margin", S,
     "lgamma(values[-1])\n                              - abs(below) * envelope)",
     "lgamma(values[-1]))", None),
    ("float: the top takes its own margin", S,
     "margin = abs(row if below is None else below) * envelope",
     "margin = abs(row) * envelope", None),
    ("float: no top margin", S, "gamma(values[-1])) + margin))", "gamma(values[-1]))))", None),
    ("float: margin_max is the last margin", S, "margin_max = max(margin_max, margin)",
     "margin_max = margin", None),
    ("vector: icbf takes margins", S, "or not filter_on\n    zero_d", "or True\n    zero_d", None),
    ("float: icbf takes margins", S, "or not filter_on\n    dt", "or True\n    dt", None),
    ("lam = beta - mu1", O, "return self.beta - 0.5 * self.mu1",
     "return self.beta - self.mu1", None),
    ("envelope: mu1 lam for 2 mu1 lam", O, "two_ml = 2.0 * cfg.mu1 * cfg.lam",
     "two_ml = cfg.mu1 * cfg.lam", None),
    ("envelope: decay at lam", O, "math.exp(-2.0 * cfg.lam * t)", "math.exp(-cfg.lam * t)", None),
    ("envelope: E0 for E0^2", O, "two_ml * e0 * e0 * decay", "two_ml * e0 * decay", None),
    ("envelope: k1 for k1^2", O, "k1 * k1 * (1.0 - decay)", "k1 * (1.0 - decay)", None),
    ("envelope: k1^2 without 1 - decay", O, "k1 * k1 * (1.0 - decay)", "k1 * k1", None),
    ("gain condition: largest eigenvalue", O, "np.linalg.eigvalsh(sym)[0]",
     "np.linalg.eigvalsh(sym)[-1]", None),
    ("vector: d_hat without beta q", S, "d_hat_obs = z[n + m:] + beta * q(x)",
     "d_hat_obs = z[n + m:]", None),
    ("vector rhs: d_hat without beta q", S, "d_hat = zz[n + m:] + beta * q(xx)",
     "d_hat = zz[n + m:]", None),
    ("vector rhs: rdot without beta", S, "-beta * np.asarray(gain_at(xx))",
     "-np.asarray(gain_at(xx))", None),
    ("vector rhs: observer reads d_true", S, "dot(fx + lx.dot(d_hat)))",
     "dot(fx + lx.dot(d_true(tt))))", None),
    ("vector rhs: constant L_d for gain_at", S, "np.asarray(gain_at(xx))",
     "np.asarray(obs.L_d)", None),
    ("vector rhs: gain_at at the step start", S, "np.asarray(gain_at(xx))",
     "np.asarray(gain_at(z[:n]))", None),
    ("vector rhs: ell at the step start", S, "lx = np.asarray(ell(xx))",
     "lx = np.asarray(ell(z[:n]))", None),
    ("vector rhs: plant without d_true", S, "fx + lx.dot(d_true(tt)), u_rate", "fx, u_rate", None),
    ("rk4_step: k3 counted once", S, "2.0 * k2 + 2.0 * k3 + k4", "2.0 * k2 + k3 + k4", None),
    ("float: d_hat without beta q", S, "d_hat_obs = z[idx_r] + beta * q_val",
     "d_hat_obs = z[idx_r]", None),
    ("float rhs: d_hat without beta q", S, "dh = zz[idx_r] + beta * qv", "dh = zz[idx_r]", None),
    ("float rhs: rdot without ell d_hat", S, "rdot += gain[i] * (fi + ellc[i] * dh)",
     "rdot += gain[i] * fi", None),
    ("float rhs: rdot without beta", S, "out[idx_r] = -beta * rdot", "out[idx_r] = -rdot", None),
    ("float rhs: plant without d_true", S, "out[i] = fi + ellc[i] * dv", "out[i] = fi", None),
    ("solve_1d: v* = 0 whatever the rhs", F,
     "best = 0.0 if all(r <= 0.0 for _, r in cons) else None", "best = 0.0", None),
    ("solve_1d: a zero normal is skipped", F, "return None  # no input",
     "continue  # no input", None),
    ("solve_1d: r p for r / p", F, "v = r / (p * p) * p", "v = r * p", None),
    ("solve_1d: keeps the larger candidate", F, "abs(v) >= abs(best)", "abs(v) <= abs(best)", None),
    ("solve_1d: unscaled feasibility tolerance", F, "-FEAS_TOL * max(1.0, abs(rk), abs(pv))",
     "-FEAS_TOL", None),
    ("solve_multi: unscaled feasibility tolerance", F, ">= -FEAS_TOL * scale",
     ">= -FEAS_TOL", None),
    ("solve_multi: one-constraint subsets only", F, "range(1, min(m, len(indices)) + 1)",
     "range(1, 2)", None),
    ("barrier_min of the first value only", S, "for i in by_label:",
     "for i in by_label[:1]:", None),
    ("envelope_violation_max is the error", S, "excess = err - envelope\n", "excess = err\n", None),
    ("correction_effort sums |v|", S, "v_sq += v * v", "v_sq += abs(v)", None),
    ("correction_effort without dt", S, "float(v_sq * dt)", "float(v_sq)", None),
    ("unsafe below -1e-2", S, "v < -1e-3 for v", "v < -1e-2 for v", None),
    ("an error before step 0 halts", S, "isinstance(exc, OSError) or math.isnan(t_last)",
     "isinstance(exc, OSError)", None),
    ("start check lets +inf pass", S, "if not 0.0 <= v < math.inf}", "if not 0.0 <= v}", None),
    ("start check lets NaN pass", S, "if not 0.0 <= v < math.inf}", "if v < 0.0}", None),
    ("start check warns", S, "np.errstate(all=\"ignore\")", "np.errstate()", None),
    ("a state-map L_d needs no q_fn", O, "if self.q_fn is None:", "if False:", None),
    ("a constant L_d takes a q_fn", O, "if self.q_fn is not None:", "if False:", None),
    ("a constant L_d's potential is 2 L_d x", O, "(lambda x: mat), mat.dot",
     "(lambda x: mat), (lambda x: 2.0 * mat.dot(x))", None),
    ("check: deficit > margin", F, "deficit > -margin:", "deficit > margin:", None),
    ("check: default times 10 / lam", F, "100.0 / obs_cfg.lam", "10.0 / obs_cfg.lam", None),
    ("resolution 1 accepted", F, "r >= 2 for r in counts", "r >= 1 for r in counts", None),
    ("every axis takes the first count", F, "highs[i], counts[i])", "highs[i], counts[0])", None),
]


def junit_failures(xml_path):
    """(failing test ids, ids that failed only on a wall-clock Budget); a
    suite that wrote no report fails as a whole."""
    if not xml_path.exists():
        return ["no report"], []
    failed, budget = [], []
    for case in ET.parse(xml_path).iter("testcase"):
        for outcome in ("failure", "error"):
            node = case.find(outcome)
            if node is not None:
                test = f"{case.get('classname')}::{case.get('name')}"
                only_time = "s budget" in (node.get("message") or "")
                (budget if only_time else failed).append(test)
                break
    return failed, budget


def run(mutant):
    """Apply one mutant (None: the control) to a copy and run tier 1 there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=ignore)
        if mutant is not None:
            _, name, old, new, _ = mutant
            path = tree / "src" / "do_icbf" / name
            path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--junitxml", str(tree / "junit.xml"),
               "--deselect", TABLE_TEST, "tests"]
        try:
            subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [], ["timeout"]
        return junit_failures(tree / "junit.xml")


def table_errors():
    """A message for each old text that does not occur exactly once."""
    counts = [(label, name, (PACKAGE / name).read_text().count(old))
              for label, name, old, _, _ in MUTANTS]
    return [f"{label}: its old text occurs {n} times in {name}" for label, name, n in counts
            if n != 1]


def main():
    errors = table_errors()
    if errors:
        print(*errors, sep="\n")
        return 1
    start, workers = time.perf_counter(), len(os.sched_getaffinity(0))
    matrix, wrong = {}, 0
    with ThreadPoolExecutor(workers) as pool:
        control = pool.submit(run, None)
        for (label, name, _, _, reason), (failed, budget) in zip(MUTANTS, pool.map(run, MUTANTS)):
            matrix[label] = {"file": name, "killed_by": failed, "budget_only": budget,
                             "equivalent": reason}
            wrong += bool(failed) == (reason is not None)
            state = "killed" if failed else "equivalent" if reason else "SURVIVED"
            first = f" ({len(failed)} tests; first {failed[0]})" if failed else ""
            print(f"{state:10} {label}{first}", flush=True)
    if control.result()[0]:
        print("the unmutated tree fails:", *control.result()[0], sep="\n  ")
        return 1
    (ROOT / ".mutants").mkdir(exist_ok=True)
    (ROOT / ".mutants" / "matrix.json").write_text(json.dumps(matrix, indent=1) + "\n")
    killed = sum(bool(row["killed_by"]) for row in matrix.values())
    print(f"{killed} of {len(MUTANTS)} killed, {wrong} not as marked; {workers} workers, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
