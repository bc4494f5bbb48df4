"""The one-thread BLAS pin that ``import dcearray`` sets before numpy loads.

Both tests run fresh interpreters: OpenBLAS reads ``OPENBLAS_NUM_THREADS``
once, when numpy loads, and pytest has loaded numpy already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _env(threads):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _python(args, threads):
    return subprocess.run(
        [sys.executable, *args], env=_env(threads), capture_output=True, check=True,
    ).stdout


def test_import_pins_blas_to_one_thread_unless_the_user_set_it():
    code = ["-c", "import os, dcearray; print(os.environ['OPENBLAS_NUM_THREADS'])"]
    assert _python(code, None).split() == [b"1"]
    assert _python(code, "2").split() == [b"2"]


def test_ring256_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A ring-256 sweep writes the same bytes with the variable unset and at 1.

    On a host with two or more cores these bytes differ between one and two
    BLAS threads (OpenBLAS splits the ring-256 linear algebra between its
    threads, and the split changes the rounding), so the test fails if the
    import stops pinning the count.
    On a one-core host both runs use one thread and the test passes
    trivially.
    """
    outputs = []
    for threads in (None, "1"):
        out = tmp_path / f"ring256-{threads}.csv"
        _python(["-m", "dcearray.cli", "sweep", "--topology", "ring", "--n", "256",
                 "--theta-steps", "50", "--target-occupancy", "0.1",
                 "--observables", "n_1,g2_1_2", "--out", str(out)], threads)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
