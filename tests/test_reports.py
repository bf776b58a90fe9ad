"""Whole reports pinned byte for byte: a fixed command set, and the SHA-256 of
each run's stdout, exit code and OBJ or CSV file.

The commands run in a temporary directory with relative --out names, so the
paths that reports echo are the same on every machine. A digest changes
with any byte of a report or file; a deliberate change to the output
must update it here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isocurv
from isocurv.cli import main

SPECS = {
    "casea.json": {"kind": "CaseA", "f0": 1.5, "m0": 2.0, "n0": -3.0, "d1": 0.25, "d2": 1.0},
    "c31.json": {"kind": "Case31Candidate", "c3": 1.0, "c4": 1.0, "d7": 0.5, "d8": 0.0, "d9": 0.0, "m0": 1.0},
}

MIXED = "exp(0.3*x)*sin(y)+ln(2+x^2)/sqrt(3+y^2)"

# name -> (argv, output file or None)
COMMANDS = {
    "scan-lw": (["scan", "--surface", "(2*x+1)*(3*y+4)", "--residual", "lw",
                 "--a", "0", "--b", "1", "--c", "-36", "--grid", "7,5"], None),
    "scan-euler": (["scan", f"--surface={MIXED}", "--residual", "euler", "--grid", "9,7"], None),
    "scan-jacobian": (["scan", f"--surface={MIXED}", "--residual", "jacobian", "--grid", "6,8",
                       "--domain=-0.5,2,-1,0.75"], None),
    "verify-constant": (["verify-family", "--spec", "casea.json", "--grid", "6,5"], None),
    "verify-case31-pass": (["verify-family", "--spec", "c31.json", "--n0", "-1",
                            "--grid", "11,3"], None),
    # Two of three columns survive the pole at x = 0: too few samples.
    "verify-case31-fail": (["verify-family", "--spec", "c31.json", "--grid", "3,3"], None),
    "mesh-surface": (["mesh", "--surface", "x^2-y^2", "--grid", "5,4", "--out", "s.obj"], "s.obj"),
    "mesh-spec-gap": (["mesh", "--spec", "c31.json", "--grid", "7,3", "--exclusion", "0.1",
                       "--out", "c31.obj"], "c31.obj"),
    "ode-out": (["ode", "--ode", "saturated-linear", "--c5", "-2", "--f0", "1", "--fp0", "0.5",
                 "--t-end", "1", "--step", "0.125", "--out", "traj.csv"], "traj.csv"),
    # 10,000-step runs in the shapes of the benchmark's timed ODE operations.
    "ode-reciprocal-long": (["ode", "--ode", "shifted-reciprocal", "--c3", "1.25", "--m0", "-0.75",
                             "--oracle-c4", "0.5", "--oracle-d9", "1.25", "--f0", "-0.5",
                             "--fp0", "0.32", "--t-end", "1", "--step", "0.0001"], None),
    "ode-cosh-long-out": (["ode", "--ode", "saturated-linear", "--c5", "1.5", "--d10", "0",
                           "--f0", "0.75", "--fp0", "0.25", "--t-end", "1", "--step", "0.0001",
                           "--out", "long.csv"], "long.csv"),
}

# name -> (exit code, sha256 of stdout, sha256 of the output file or None)
PINNED = {
    "scan-lw": (0, "73b05ca8d27ee4c0133a124d4df75b1e299c1170464eb4a5e4413b2ceba54f8a", None),
    "scan-euler": (1, "1709c458bc6fc8f3b714fbff60177499208b1fd2ce3a71d212ab8e3e67d26d17", None),
    "scan-jacobian": (1, "16d71627fc68bb9b33e926756c87905539a6f7cb6df65e08d00ed79f6fade4ec", None),
    "verify-constant": (0, "6c15cc9c77f2cb7746bc94efb232a977c4340e100419dfaf8c8f1054584455d9", None),
    "verify-case31-pass": (0, "e648530e4c617b907db5f08a29b50913d519cd03fa83d616349669a92e1c902c", None),
    "verify-case31-fail": (1, "fd798dc09f5d6fb1406d8858ad1da441ebae9e026fd1f34c8beaee8d1b7d6eef", None),
    "mesh-surface": (0, "3940094e4ca60b7e5582a24cd658b46a69710003e5957c845610f425cccaafb7", "a6e3c90c4f139425e52145ead389bea3cf9dc982a0df7924a04558c85880a70c"),
    "mesh-spec-gap": (0, "b7abe602056f70bdcf3ad938442655a692709c1584360cc35ae7dd9d9065df06", "14f24c569382250065ef4f1dc5a6059bd1bd91e92d1986174eafaf5828feb157"),
    "ode-out": (1, "9bb51cde676f82c9fb366b4c0d4f11e288445420e61230acdc2ebac1d69fca9c", "1a07b132c1cf2934b4dff9b767e0d7c6cc2831ced72c44318216749a98fb76eb"),
    "ode-reciprocal-long": (0, "39838cb52f79f57023dd0ed1e7e2f864314db720d4b5f1a1a2d9339115c53408", None),
    "ode-cosh-long-out": (0, "1fc3fed7663bce51b886f51c2232d75567e535ffc0ace5dc3f64de1b94414272", "1433f36599d54e7ace2f5a14bc7b632be4c77e2ba3039ad056a6c1002781a91f"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_specs(directory: Path) -> None:
    for spec_name, spec in SPECS.items():
        (directory / spec_name).write_text(json.dumps(spec), encoding="utf-8")


@pytest.mark.parametrize("name", COMMANDS)
def test_report_and_files_are_pinned(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    _write_specs(tmp_path)
    argv, out = COMMANDS[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    file_sha = _sha((tmp_path / out).read_bytes()) if out else None
    assert (code, _sha(captured.out.encode()), file_sha) == PINNED[name]


def test_the_module_entry_point_gives_the_pinned_bytes(tmp_path):
    # python -m isocurv ends through cli.entrypoint, which main alone does
    # not reach: its exit code and output must be those of main.
    _write_specs(tmp_path)
    src = str(Path(isocurv.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, (argv, out) in COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "isocurv", *argv], cwd=tmp_path, env=env,
                              capture_output=True, timeout=60)
        assert proc.stderr == b"", name
        file_sha = _sha((tmp_path / out).read_bytes()) if out else None
        assert (proc.returncode, _sha(proc.stdout), file_sha) == PINNED[name], name
