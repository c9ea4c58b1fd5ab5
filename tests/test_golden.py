"""Golden outputs of both step kernels and of the validity checker.

The hashes were recorded from the closed loop before its float and vector
kernels shared one loop skeleton; they pin every logged bit, so a refactor
of either kernel, of the constraint assembly or of the QP must leave them
unchanged. The float kernel (fast_loop=True) and the vector kernel
(fast_loop=False) round differently, so each has its own hash.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from do_icbf import SimConfig, build_acc, build_bicycle, run_closed_loop
from do_icbf.cli import EXIT_INVALID, EXIT_OK, main

ROWS_SHA256 = {
    ("acc", "do_icbf", True): "5217978a73e44c74d38b79615bac257a3d948e47f70d4bd4632bc578fdb0d12f",
    ("acc", "icbf", True): "5e32ddc210f7653b7da430e99e4dc4606f1b6114d94fc3f246d87f36ba2d9397",
    ("acc", "off", True): "026fc677671a15761cd44af17ab67fc1c0d85c3e95481054bb703e3959a0c9bf",
    ("acc", "do_icbf", False): "b56ed422031e2b4c3ec32b9e655cab6add598e5d454352bfa841fdf10a7ec932",
    ("acc", "icbf", False): "3628e06f208cc6258fd5e9c138c1ff954f4b75a5fc076cc96d639b83dbc25272",
    ("acc", "off", False): "ebb7f6f80478af801afb020995a31f66b73c48c70e9fb6e5fec06e41d0b4952b",
    ("bicycle", "high_order", True): "cc5fde462df23fb41fda8fdce20bb2bb526cd9ce94f4daae494db092b18a8d5e",
    ("bicycle", "off", True): "cc5fde462df23fb41fda8fdce20bb2bb526cd9ce94f4daae494db092b18a8d5e",
    ("bicycle", "high_order", False): "9b34bfcb618073df8f10403be9264bfa4265d53770b23300be69ee90d5a7df73",
    ("bicycle", "off", False): "9b34bfcb618073df8f10403be9264bfa4265d53770b23300be69ee90d5a7df73",
}

VALIDITY_SHA256 = {
    "acc": ("ecc2ec6d2760b264fabbe8eaa3ba23f17438c065df3557acb92f35bbfb1bdf17", EXIT_OK),
    "bicycle": ("4163a90c6c5b730752b0758b4aad68f46a0a1550bf5742e38645e76b6ff80a3b", EXIT_OK),
    "example1": ("65dc2452fe1a58ffa406ef2dc9fb4fcd330cb302cdc8b9afeff436ad27d42844", EXIT_INVALID),
}

# The benchmark's fine grids (benchmark/workloads.py) and an explicit times
# list with a repeated time: (check block, sha256, exit code, counterexamples).
CHECK_SHA256 = {
    "acc-fine": ({"resolution": [9, 21, 21, 21]},
                 "ecc2ec6d2760b264fabbe8eaa3ba23f17438c065df3557acb92f35bbfb1bdf17", EXIT_OK, 0),
    "bicycle-fine": ({"resolution": [9, 9, 9, 9, 9]},
                     "86c08e18d4d0b33b6c4c778e404dba36af8de16d10175d2afd5b593266859c5b",
                     EXIT_INVALID, 45),
    "example1-times": ({"resolution": 17, "times": [0.0, 2.0, 0.0]},
                       "7874279d4261126971bc425b4d623a7ea365f2fba4e3b73be49d79825f3f5780",
                       EXIT_INVALID, 384),
}

BUILDERS = {"acc": build_acc, "bicycle": build_bicycle}


def rows_sha256(log) -> str:
    """sha256 of the header and the little-endian float64 bytes of every row."""
    h = hashlib.sha256(",".join(log.header).encode())
    h.update(np.asarray(log.rows, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,mode,fast", sorted(ROWS_SHA256))
def test_kernel_rows_match_golden_hash(name, mode, fast):
    scenario = dataclasses.replace(BUILDERS[name](), fast_loop=fast)
    log = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=2.0, filter_mode=mode))
    assert log.halt_reason == "completed"
    assert rows_sha256(log) == ROWS_SHA256[(name, mode, fast)]


@pytest.mark.parametrize("name", sorted(VALIDITY_SHA256))
def test_validity_json_matches_golden_hash(name, tmp_path, capsys):
    digest, exit_code = VALIDITY_SHA256[name]
    assert main(["check", "--scenario", name, "--out", str(tmp_path)]) == exit_code
    assert hashlib.sha256((tmp_path / "validity.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(CHECK_SHA256))
def test_configured_check_matches_golden_hash(case, tmp_path, capsys):
    _configured_check_matches_golden_hash(case, tmp_path)


def test_forked_check_matches_golden_hash(tmp_path, monkeypatch, capsys, forks, deadline):
    # three processes, whatever CPUs this host has: this one scans the first
    # block of the grid and two forked children the other two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    _configured_check_matches_golden_hash("bicycle-fine", tmp_path)
    assert len(forks) == 2


def _configured_check_matches_golden_hash(case, tmp_path):
    check, digest, exit_code, count = CHECK_SHA256[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": case.split("-")[0], "check": check,
                               "out": str(tmp_path / "out")}))
    assert main(["check", "--config", str(cfg)]) == exit_code
    data = (tmp_path / "out" / "validity.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    report = json.loads(data)
    assert len(report["counterexamples"]) == count
    if case == "bicycle-fine":
        assert sorted({c["t"] for c in report["counterexamples"]}) == [0.0, 10.0, 200.0]
