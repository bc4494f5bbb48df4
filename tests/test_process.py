"""What a CLI process inherits from its import, and how it exits.

Every test runs fresh interpreters: pytest has imported ``dcearray.cli``
already, so its own process shows the CLI's GC state, not a bare import's.
"""

import ast
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def _python(args, check=True):
    return subprocess.run(
        [sys.executable, *args], env=ENV, capture_output=True, check=check,
    )


def _gc_state(*modules):
    """(freeze count, enabled, thresholds) of a fresh process after the imports."""
    code = "".join(f"import {m}; " for m in ("gc", *modules))
    code += "print((gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()))"
    return ast.literal_eval(_python(["-c", code]).stdout.decode())


def test_only_the_cli_freezes_the_heap_it_imports():
    bare = _gc_state()
    assert bare[:2] == (0, True)
    assert _gc_state("dcearray") == bare

    count, enabled, threshold = _gc_state("dcearray.cli")
    assert count > 0
    assert (enabled, threshold) == bare[1:]


@pytest.mark.parametrize(
    "args, code",
    [
        # 467 KB, more than a pipe buffer holds
        (["sweep", "--target-occupancy", "0.1", "--theta-steps", "1500",
          "--temperature-mk", "0,25,40"], 0),
        # every 0 K point fails, so the run is partial
        (["sweep", "--da0-joule", "0", "--temperature-mk", "0,25", "--theta-steps", "5"], 2),
        # the rho dump follows the status line
        (["entangle", "--target-occupancy", "0.3", "--theta-rad", "1.3",
          "--temperature-mk", "40"], 0),
        # blocks of rows per temperature
        (["spectrum", "--target-occupancy", "0.1", "--theta-rad", "1.1",
          "--temperature-mk", "0,25"], 0),
        # one table in blocks of rows
        (["time-delay", "--target-occupancy", "0.1", "--theta-rad", "2.0"], 0),
    ],
)
def test_stdout_carries_the_out_file_bytes_and_the_exit_code(args, code, tmp_path):
    command = ["-m", "dcearray.cli", *args]
    run = _python(command, check=False)
    out = tmp_path / "run.csv"
    to_file = _python([*command, "--out", str(out)], check=False)
    assert (run.returncode, to_file.returncode) == (code, code)
    assert to_file.stdout == b""
    assert run.stdout == out.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["calibrate", "--theta-rad", "1", "--target-occupancy", "0.1",
         "--a0-joule", "1e-160"],
        ["sweep", "--theta-steps", "3", "--temperature-mk", "0,25",
         "--a0-joule", "1e-160", "--target-occupancy", "0.1"],
    ],
    ids=["calibrate", "sweep"],
)
def test_an_overflowing_run_prints_its_error_and_no_numpy_warning(args):
    # pytest captures warnings in process, so only a real process shows them
    run = _python(["-m", "dcearray.cli", *args], check=False)
    assert run.returncode == 1 and run.stdout == b""
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize(
    "args, code",
    [
        (["sweep", "--da0-joule", "1e-26", "--theta-steps", "20000"], 0),
        # every 0 K point fails, so the run is partial
        (["sweep", "--da0-joule", "0", "--temperature-mk", "0,25",
          "--theta-steps", "20000"], 2),
    ],
)
def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(args, code):
    # megabytes of rows, more than a pipe buffer holds, so the write meets the closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "dcearray.cli", *args], env=ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            assert proc.stdout.read(8) == b"# theta,"
            proc.stdout.close()
            assert proc.wait(timeout=60) == code
            assert proc.stderr.read() == b""
        finally:
            proc.kill()


def _cap_address_space():
    # 2 GiB: a size that escapes its check then fails here, not on the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "args, first_words",
    [
        (["--theta-steps", "99999999999999999999"], "config error: theta_steps = "),
        (["--theta-rad", "1", "--n", "99999999999999999999"], "config error: n = "),
        (["--theta-rad", "1", "--n", "9999999999"], "config error: n = "),
        (["--theta-rad", "1", "--n", "100000000"], "error: out of memory: Unable to allocate"),
    ],
    ids=["theta-steps-unindexable", "n-unindexable", "n-too-big", "n-unallocatable"],
)
def test_a_size_numpy_cannot_hold_fails_at_once(args, first_words):
    # before the edge list of n - 1 tuples is built, which took seconds and
    # gigabytes for these n; run only under the cap, never without it
    run = subprocess.run(
        [sys.executable, "-m", "dcearray.cli", "sweep", "--da0-joule", "1e-26", *args],
        env=ENV, capture_output=True, text=True, timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert run.returncode == 1 and run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_words), lines


def test_the_cli_prints_each_warning_as_one_line():
    args = ["entangle", "--theta-steps", "3", "--temperature-mk", "25",
            "--a0-joule", "1e-25", "--da0-joule", "3e-25"]
    run = _python(["-m", "dcearray.cli", *args], check=False)
    assert run.returncode == 2
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines), lines
