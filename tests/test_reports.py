"""Whole reports pinned byte for byte: a fixed command set, and the SHA-256 of
each run's stdout, exit code and OBJ or CSV file.

The commands run in a temporary directory with relative --out names, so the
paths that reports echo are the same on every machine. A digest changes
with any byte of a report or file; a deliberate change to the output
must update it here.
"""

import hashlib
import json

import pytest

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
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", COMMANDS)
def test_report_and_files_are_pinned(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    for spec_name, spec in SPECS.items():
        (tmp_path / spec_name).write_text(json.dumps(spec), encoding="utf-8")
    argv, out = COMMANDS[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    file_sha = _sha((tmp_path / out).read_bytes()) if out else None
    assert (code, _sha(captured.out.encode()), file_sha) == PINNED[name]
