import math

import contextlib
import io
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcearray import oracle
from dcearray.cli import (
    _COMMANDS, _OBSERVABLES, CONFIG_KEYS, SUBCOMMANDS, main, parse_config, run_sweep,
)
from dcearray.errors import MissingRequired, RangeError, UnknownKey

MINIMAL = "target_occupancy = 0.1\n"


def _sweep_lines(cfg):
    """run_sweep's CSV as lines, and its failure count."""
    chunks, failures = run_sweep(cfg)
    return "".join(chunks).splitlines(), failures


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.topology.n == 2
    assert cfg.line.z0 == 55.0
    assert cfg.drive.phi == pytest.approx(math.pi / 4.0)
    assert cfg.drive.omega_d == pytest.approx(2.0 * math.pi * 10.3e9)
    assert cfg.temperatures == (0.0,)


def test_unknown_key_is_hard_error():
    with pytest.raises(UnknownKey):
        parse_config(MINIMAL + "phii_rad = 0.5\n")
    with pytest.raises(UnknownKey, match="'phii_rad'"):
        parse_config(MINIMAL, {"phii_rad": "0.5"})


def test_phase_velocity_is_no_key(tmp_path, capsys):
    # v cancels from every output, so the line's is fixed and no key sets it
    config = tmp_path / "run.cfg"
    config.write_text(MINIMAL + "v_m_s = 1e8\n")
    assert main(["sweep", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "config error: unknown configuration key 'v_m_s'\n"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--target-occupancy", "0.1", "--v-m-s", "1e8"])
    assert info.value.code == 2
    assert "unrecognized arguments: --v-m-s" in capsys.readouterr().err


def test_config_file_byte_order_mark_is_skipped(tmp_path, capsys):
    text = "target_occupancy = 0.1\ntheta_steps = 5\ntemperature_mk = 0,25\n"
    outputs = []
    for bom in ("", "\ufeff"):
        config = tmp_path / "run.cfg"
        config.write_text(bom + text, encoding="utf-8")
        outputs.append((main(["sweep", "--config", str(config)]), capsys.readouterr()))
    assert outputs[1][1].out.startswith("#")
    assert outputs[1] == outputs[0]


def test_da0_and_target_are_exclusive():
    with pytest.raises(RangeError):
        parse_config("da0_joule = 1e-26\ntarget_occupancy = 0.1\n")


def test_one_amplitude_setting_required():
    with pytest.raises(MissingRequired):
        parse_config("phi_rad = 0.7\n")


def test_ring_31_config_is_valid():
    cfg = parse_config(MINIMAL + "topology = ring\nn = 31\n")
    assert cfg.topology.n == 31


def test_theta_point_and_sweep_are_exclusive():
    with pytest.raises(RangeError):
        parse_config(MINIMAL + "theta_rad = 0.3\ntheta_steps = 5\n")


@pytest.mark.parametrize(
    "token",
    ["g2_11", "n_1_2", "g2_1", "cs_violation_1", "entropy_1", "n_", "G2_1_1",
     "f_noon_1"],
)
def test_bad_observable_token(token, capsys):
    with pytest.raises(RangeError, match="unrecognized observable token"):
        parse_config(MINIMAL + f"observables = {token}\n")
    assert main(["sweep", "--target-occupancy", "0.1", "--observables", token]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["n_3", "g2_1_3", "cs_violation_0_1"])
def test_observable_index_range(token):
    with pytest.raises(RangeError, match="indexes outside 1..2"):
        parse_config(MINIMAL + f"observables = {token}\n")


def test_f_eq10_is_not_read_as_an_index():
    cfg = parse_config(MINIMAL + "observables = entropy,f_noon,f_eq10\n")
    assert cfg.observables == ("entropy", "f_noon", "f_eq10")


def test_overrides_layer_on_file():
    cfg = parse_config(MINIMAL, {"phi_rad": "0.9", "temperature_mk": "0,25"})
    assert cfg.drive.phi == pytest.approx(0.9)
    assert cfg.temperatures == (0.0, 25.0)


def test_temperature_cells_print_the_given_millikelvin(capsys):
    # each value is printed as given, not through kelvin and back (9 -> 9)
    temps = [str(t) for t in range(1001)]
    args = ["sweep", "--da0-joule", "1e-25", "--theta-rad", "1", "--observables", "n_1",
            "--temperature-mk", ",".join(temps)]
    assert main(args) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split(",")[2] for row in rows] == temps
    args = ["spectrum", "--theta-rad", "1", "--da0-joule", "1e-25", "--temperature-mk", "0,9"]
    assert main(args) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert sorted({row.split(",")[1] for row in rows}) == ["0", "9"]


def test_sweep_emits_header_rows_and_status():
    cfg = parse_config(MINIMAL + "theta_steps = 5\ntemperature_mk = 0,25\n")
    lines, failures = _sweep_lines(cfg)
    assert failures == 0
    assert lines[0].startswith("# theta,phi,temperature_mk,")
    assert lines[-1] == "# status: ok"
    assert len(lines) == 2 + 5 * 2


def test_sweep_rows_record_failures_without_aborting():
    # theta sweep through a working point where the drive does not couple
    cfg = parse_config(
        "da0_joule = 0\ntheta_steps = 3\n"
    )
    lines, failures = _sweep_lines(cfg)
    assert failures == 3
    assert lines[-1].startswith("# status: partial")
    assert "ZeroIntensity" in lines[1]


def test_sum_rule_in_sweep_output():
    cfg = parse_config(MINIMAL + "theta_steps = 40\n")
    lines, _ = _sweep_lines(cfg)
    for row in lines[1:-1]:
        cells = row.split(",")
        g11, g12 = float(cells[4]), float(cells[5])
        assert g11 + g12 == pytest.approx(1.0, abs=1e-12)


def test_cli_writes_file_and_reruns_identically(tmp_path):
    out = tmp_path / "sweep.csv"
    args = [
        "sweep",
        "--target-occupancy", "0.1",
        "--theta-steps", "50",
        "--temperature-mk", "0,25",
        "--out", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_cli_exit_code_on_config_error(capsys):
    rc = main(["sweep", "--target-occupancy", "2.0"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_on_partial_failure(tmp_path):
    out = tmp_path / "partial.csv"
    rc = main(
        ["sweep", "--da0-joule", "0", "--theta-steps", "2", "--out", str(out)]
    )
    assert rc == 2
    assert "# status: partial" in out.read_text()


@pytest.mark.parametrize(
    "observables, message",
    [
        ("entropy,n_1", "no pair amplitude; nothing to post-select"),
        ("n_1,g2_1_1,entropy", "some waveguide emits no photons"),
    ],
    ids=["entropy,n_1-no pair amplitude; nothing to post-select",
         "n_1,entropy-some waveguide emits no photons"],
)
def test_first_token_decides_the_error_cell(observables, message, tmp_path):
    # both states fail at da0 = 0, and n_1 has no error cell: the first token
    # with one decides
    out = tmp_path / "partial.csv"
    args = ["sweep", "--da0-joule", "0", "--theta-steps", "2",
            "--observables", observables, "--out", str(out)]
    assert main(args) == 2
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2
    assert all(message in row for row in rows)


_G2_UNDEFINED = (
    "ZeroIntensity: some waveguide emits no photons; normalized g2 is undefined"
)
_NO_PAIR = "ZeroIntensity: no pair amplitude; nothing to post-select"


@pytest.mark.parametrize(
    "observables, code, row",
    [("n_1", 0, "0,0.78539816339744828,0,0,"),
     ("n_1,g2_1_1", 2, "0,0.78539816339744828,0,,," + _G2_UNDEFINED)],
    ids=["intensity", "intensity-and-g2"],
)
def test_a_dark_guide_reads_zero_and_fails_its_g2(observables, code, row, capsys):
    # at theta = 0 the one guide emits nothing: N_1 = 0 is a value, g2_1_1 is not
    args = ["sweep", "--n", "1", "--da0-joule", "1e-25", "--theta-steps", "3",
            "--observables", observables]
    assert main(args) == code
    assert capsys.readouterr().out.splitlines()[1] == row


def test_intensities_of_an_undriven_array_are_zero(capsys):
    args = ["sweep", "--da0-joule", "0", "--theta-steps", "3",
            "--observables", "n_1,n_2"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [row.split(",")[3:] for row in lines[1:-1]] == [["0", "0", ""]] * 3
    assert lines[-1] == "# status: ok"


# Token name -> (the run that prints it alone, its cell at a dark point: da0 = 0
# and T = 0).  A token that lands in _OBSERVABLES states its dark cell here.
_DARK_CELLS = {
    "n": (["sweep", "--observables", "n_1"], "0"),
    "g2": (["sweep", "--observables", "g2_1_2"], _G2_UNDEFINED),
    "cs_violation": (["sweep", "--observables", "cs_violation_1_2"], _G2_UNDEFINED),
    "entropy": (["sweep", "--observables", "entropy"], _NO_PAIR),
    "f_noon": (["sweep", "--observables", "f_noon"], _NO_PAIR),
    "f_eq10": (["sweep", "--observables", "f_eq10"], _NO_PAIR),
    "g2bb": (["broadband"], _G2_UNDEFINED),  # both of broadband's columns
}


def test_dark_cells_cover_every_token():
    assert _DARK_CELLS.keys() == {*_OBSERVABLES, "g2bb"}


@pytest.mark.parametrize(
    "name, temperature_mk",
    # broadband reads no temperature
    [*((name, "0") for name in [*_OBSERVABLES, "g2bb"]),
     *((name, "25") for name in _OBSERVABLES)],
)
def test_every_token_states_its_dark_point_cell(name, temperature_mk, capsys):
    # da0 = 0 drives nothing: each intensity is 0 at T = 0 and N_T above it
    args, dark = _DARK_CELLS[name]
    code = main([*args, "--n", "2", "--da0-joule", "0", "--theta-rad", "1",
                 "--temperature-mk", temperature_mk])
    row = capsys.readouterr().out.splitlines()[1].split(",")
    *cells, error = row[1 if args[0] == "broadband" else 3:]
    if temperature_mk == "0" and dark != "0":
        assert (code, cells, error) == (2, [""] * len(cells), dark)
        return
    assert (code, error) == (0, "")
    assert all(math.isfinite(float(cell)) for cell in cells)
    if temperature_mk == "0":
        assert cells == [dark]


def test_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    calls = _count_mode_response(monkeypatch)
    out = tmp_path / ("a" * 300 + ".csv")  # longer than any file name may be
    args = ["sweep", "--target-occupancy", "0.1", "--theta-steps", "3",
            "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write out=")
    assert "Traceback" not in err
    assert calls == []  # found before the compute


@pytest.mark.parametrize("existing", [None, "kept\n"], ids=["new", "existing"])
def test_failed_run_leaves_out_as_it_was(existing, tmp_path, capsys):
    out = tmp_path / "new.csv"
    if existing is not None:
        out.write_text(existing)
    args = ["sweep", "--phi-rad", "3", "--target-occupancy", "0.1",
            "--out", str(out)]
    assert main(args) == 1
    assert "Lambda0" in capsys.readouterr().err
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert out.read_text() == existing


def test_cli_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("target_occupancy = 0.1\ntheta_steps = 4\n")
    out = tmp_path / "o.csv"
    rc = main(
        ["sweep", "--config", str(cfg_file), "--theta-steps", "6", "--out", str(out)]
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 6


def test_entangle_single_point_emits_rho(tmp_path):
    out = tmp_path / "ent.csv"
    rc = main(
        [
            "entangle",
            "--target-occupancy", "0.1",
            "--theta-rad", "1.305",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text().splitlines()
    rho_rows = [l for l in text if l and not l.startswith("#")]
    # one sweep row plus nine rho rows of 18 numbers
    assert len(rho_rows) == 10
    assert len(rho_rows[-1].split(",")) == 18


# The exact zero cells ("0") of the rho dump of `entangle --target-occupancy
# 0.3 --theta-rad 1.3 --temperature-mk 40`, one string per row of re/im
# pairs, "." for a nonzero cell: the post-selected vacuum row and column,
# every cell of odd total photon number, and the one part of each even cell
# that the drive's phase makes vanish.
RHO_ZERO_CELLS = (
    "000000000000000000",
    "00.000.0000.000.00",
    "0000.000.000.0000.",
    "00.000.0000.000.00",
    "0000.000.000.0000.",
    "000.000.00.000.000",
    "0000.000.000.0000.",
    "000.000.00.000.000",
    "00000.000.000.00.0",
)


def test_entangle_rho_dump_zero_cells_read_unsigned_zero(tmp_path):
    out = tmp_path / "ent.csv"
    assert main(["entangle", *WARM_POINT, "--temperature-mk", "40", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in
            lines[lines.index("# rho: rows |n1 n2>, re/im pairs for the 9 columns") + 1:]]
    # a zero prints as "0", never "-0", whichever seed or order of operations
    # produced it
    assert all(cell == "0" or float(cell) != 0.0 for row in rows for cell in row)
    assert tuple("".join("0" if cell == "0" else "." for cell in row)
                 for row in rows) == RHO_ZERO_CELLS
    for bra, ket in product(range(9), repeat=2):
        if (sum(divmod(bra, 3)) + sum(divmod(ket, 3))) % 2:
            assert rows[bra][2 * ket:2 * ket + 2] == ["0", "0"]


def test_calibrate_reports_da0(tmp_path):
    out = tmp_path / "cal.csv"
    rc = main(
        ["calibrate", "--target-occupancy", "0.1", "--out", str(out)]
    )
    assert rc == 0
    value = float(out.read_text().splitlines()[1].split(",")[0])
    assert value > 0.0


def test_broadband_subcommand(tmp_path):
    out = tmp_path / "bb.csv"
    rc = main(
        [
            "broadband",
            "--target-occupancy", "0.1",
            "--theta-steps", "9",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 9


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(
        [
            "spectrum",
            "--target-occupancy", "0.1",
            "--theta-rad", "0.6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    flux = np.array([float(r.split(",")[2]) for r in rows])
    assert np.all(flux >= 0.0)


def test_oracle_check_subcommand(tmp_path):
    out = tmp_path / "oc.csv"
    rc = main(
        [
            "oracle-check",
            "--target-occupancy", "0.1",
            "--theta-rad", "0.6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[0]) < 1e-6
    assert float(row[1]) < 1e-6


def test_oracle_check_escalates_its_cutoff(tmp_path, monkeypatch):
    # a state that fits cutoff 16 keeps it; a stronger, warmer one takes the
    # first register whose top level holds at most 1e-6 (cutoff 28, where
    # the top level holds 1.9e-7).  There the fourth moments still carry
    # the register's truncation, 2.4e-6; cutoff 32 would give 3.5e-7.
    cutoffs = []
    build = oracle.build_state

    def counted(*args, **kwargs):
        cutoffs.append(kwargs["cutoff"])
        return build(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_state", counted)
    hot = ["--target-occupancy", "0.3", "--theta-rad", "1.3", "--temperature-mk", "25"]
    for args, tried, moment_tol in (
        (["--target-occupancy", "0.1", "--theta-rad", "0.6"], [16], 1e-6),
        (hot, [16, 20, 24, 28], 3e-6),
    ):
        cutoffs.clear()
        out = tmp_path / "oc.csv"
        assert main(["oracle-check", *args, "--out", str(out)]) == 0
        assert cutoffs == tried
        moment_err, rho_err = map(float, out.read_text().splitlines()[1].split(","))
        assert moment_err <= moment_tol
        assert rho_err <= 1e-6


def test_oracle_check_builds_no_dense_register(tmp_path, monkeypatch):
    # the moments come from the per-mode tables, so the dense rho, a_ops
    # and register ladders of the warm cutoff-28 state are never formed
    states = []
    build = oracle.build_state

    def kept(*args, **kwargs):
        states.append(build(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(oracle, "build_state", kept)
    args = ["oracle-check", "--target-occupancy", "0.3", "--theta-rad", "1.3",
            "--temperature-mk", "25", "--out", str(tmp_path / "oc.csv")]
    assert main(args) == 0
    (ref,) = states
    assert "rho" not in vars(ref)
    assert "a_ops" not in vars(ref)
    assert "lower" not in vars(ref.space)


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_flags_may_come_before_the_command(tmp_path):
    flags = ["--target-occupancy", "0.1", "--theta-steps", "3"]
    outputs = []
    orders = (["--n", "2", "sweep", *flags], ["sweep", "--n", "2", *flags])
    for k, argv in enumerate(orders):
        out = tmp_path / f"{k}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_workers_env_does_not_change_output():
    """An n = 2 sweep writes the same bytes at one and at two BLAS threads.

    OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, so each run
    is a fresh interpreter (as in test_threads.py).
    """
    args = ["sweep", "--target-occupancy", "0.1", "--theta-steps", "30",
            "--temperature-mk", "0,25"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "dcearray.cli", *args],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0].startswith(b"# theta,") and outputs[0] == outputs[1]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag", ["--theta-rad", "--temperature-mk", "--a0-joule", "--da0-joule"]
)
def test_non_finite_input_is_a_config_error(flag, value, tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["sweep", flag, value, "--out", str(out)]
    if flag != "--da0-joule":
        args += ["--target-occupancy", "0.1"]
    assert main(args) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["entangle", "--target-occupancy", "0.1", "--n", "3", "--theta-steps", "3"],
        ["sweep", "--target-occupancy", "0.1", "--n", "3", "--observables", "entropy"],
    ],
)
def test_qutrit_observables_need_two_guides(args, capsys):
    assert main(args) == 1
    assert "need n = 2" in capsys.readouterr().err


def test_out_in_missing_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    import dcearray.cli as cli

    def no_compute(*_):
        raise AssertionError("computed before rejecting the output path")

    monkeypatch.setattr(cli, "eigendecompose", no_compute)
    out = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--target-occupancy", "0.1", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


def _count_calls(monkeypatch, *names):
    """Count the calls of each named function as bound in ``dcearray.cli``."""
    import dcearray.cli as cli

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cli, name)

        def counted(*a, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*a, **kw)

        monkeypatch.setattr(cli, name, counted)
    return calls


def _count_mode_response(monkeypatch):
    """Record each mode_response call, from cli and from the calibration in drive."""
    import dcearray.cli as cli
    import dcearray.drive as drive

    calls = []
    original = drive.mode_response

    def counted(*a, **kw):
        calls.append(a)
        return original(*a, **kw)

    for module in (cli, drive):
        monkeypatch.setattr(module, "mode_response", counted)
    return calls


ENTANGLE_POINT = [
    "entangle", "--target-occupancy", "0.1", "--theta-rad", "1.0",
    "--temperature-mk", "25",
]


def test_entangle_point_prepares_spectrum_and_drive_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, "eigendecompose", "calibrate_da0_over_grid")
    assert main(ENTANGLE_POINT + ["--out", str(tmp_path / "ent.csv")]) == 0
    assert calls == {"eigendecompose": 1, "calibrate_da0_over_grid": 1}


def test_entangle_point_evaluates_its_state_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, "density_matrix")
    drive_calls = _count_mode_response(monkeypatch)
    assert main(ENTANGLE_POINT + ["--out", str(tmp_path / "ent.csv")]) == 0
    assert calls == {"density_matrix": 1} and len(drive_calls) == 1


@pytest.mark.parametrize("command", ["sweep", "calibrate"])
def test_underflowing_calibration_seed_is_a_config_error(command, capsys):
    # a0 * 1e-3 is 0 in double precision, so no da0 seeds the calibration
    args = [command, "--target-occupancy", "0.1", "--a0-joule", "5e-324",
            "--theta-steps", "3"]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("config error: a0_joule = 5e-324 ")


def test_non_positive_mode_energy_is_reported_by_calibration(capsys):
    args = ["sweep", "--phi-rad", "3", "--target-occupancy", "0.1",
            "--theta-steps", "3"]
    assert main(args) == 1
    assert "mode 1 has Lambda0 =" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, rows",
    [
        (["sweep", "--da0-joule", "0", "--theta-steps", "3"], 3),
        (["broadband", "--n", "2", "--da0-joule", "0", "--theta-steps", "3"], 3),
        (["entangle", "--da0-joule", "0", "--theta-rad", "1.0"], 1),
    ],
    ids=["sweep", "broadband", "entangle-point"],
)
def test_failed_grid_points_share_one_status_format(args, rows, tmp_path):
    out = tmp_path / "partial.csv"
    assert main(args + ["--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == rows
    assert all("ZeroIntensity" in l for l in data)
    assert lines[-1] == f"# status: partial ({rows} of {rows} points failed)"


@pytest.mark.parametrize(
    "command, n, message",
    [("time-delay", "1", "n >= 2"), ("broadband", "1", "n >= 2"),
     ("sweep", "0", "n >= 1"), ("entangle", "1", "n >= 2"),
     ("oracle-check", "1", "n >= 2")],
)
def test_subcommand_guide_count_checked_first(command, n, message, capsys):
    assert main([command, "--target-occupancy", "0.1", "--n", n]) == 1
    assert f"{command} needs {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_subcommand_runs_at_its_least_n(command, capsys):
    # the observables a command does not read are not checked against n; one
    # angle is a one-point grid, and at n = 1 theta = 1 drives the guide
    args = [command, "--n", str(_COMMANDS[command].min_n), "--theta-rad", "1",
            "--target-occupancy", "0.1"]
    if command == "sweep":
        args += ["--observables", "n_1"]
    assert main(args) == 0
    assert "# status: ok" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "args",
    [
        ["calibrate", "--n", "1", "--theta-rad", "0", "--target-occupancy", "0.1"],
        ["sweep", "--n", "1", "--observables", "n_1", "--theta-start", "0",
         "--theta-end", "0", "--theta-steps", "2", "--target-occupancy", "0.1"],
    ],
    ids=["calibrate", "sweep"],
)
def test_calibration_without_response_fails_cleanly(args, capsys):
    # one guide at theta = 0 has no modulation, so no da0 meets the target
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: no grid point produces a nonzero response\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["spectrum"], "spectrum reads one theta, got a grid of 200"),
        (["time-delay", "--theta-steps", "3"], "time-delay reads one theta"),
        (["oracle-check", "--theta-steps", "5", "--temperature-mk", "0,40"],
         "oracle-check reads one theta"),
        (["time-delay", "--theta-rad", "0.9", "--temperature-mk", "40"],
         "time-delay reads no temperature"),
        (["broadband", "--theta-steps", "3", "--temperature-mk", "0,0"],
         "broadband reads no temperature"),
        (["oracle-check", "--theta-rad", "0.6", "--temperature-mk", "0,40"],
         "oracle-check reads one temperature, got 2"),
        (["calibrate", "--temperature-mk", "40"], "calibrate reads no temperature"),
        *(([command, *point, "--observables", "n_1"], f"{command} reads no observables")
          for command, point in (
              ("spectrum", ["--theta-rad", "0.6"]),
              ("time-delay", ["--theta-rad", "0.6"]),
              ("broadband", ["--theta-steps", "3"]),
              ("calibrate", []),
              ("oracle-check", ["--theta-rad", "0.6"]),
          )),
        (["entangle", "--theta-steps", "3", "--observables", "n_1"],
         "entangle observables need one of entropy, f_noon, f_eq10"),
        (["calibrate", "--da0-joule", "1e-26"], "calibrate requires target_occupancy"),
        (["oracle-check", "--theta-rad", "0.6", "--n", "3"],
         "oracle-check covers n=2 only"),
    ],
    ids=["spectrum-grid", "time-delay-grid", "oracle-check-grid",
         "time-delay-warm", "broadband-two-temps", "oracle-check-two-temps",
         "calibrate-warm", "spectrum-observables", "time-delay-observables",
         "broadband-observables", "calibrate-observables", "oracle-check-observables",
         "entangle-no-qutrit-token", "calibrate-without-target", "oracle-check-n3"],
)
def test_keys_a_command_would_ignore_are_config_errors(args, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if "--da0-joule" not in args:
        args = [*args, "--target-occupancy", "0.1"]
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, header",
    [
        (["entangle", "--theta-steps", "3"],
         "theta,phi,temperature_mk,entropy,f_noon,f_eq10,error"),
        (["entangle", "--theta-steps", "3", "--observables", "n_1,entropy"],
         "theta,phi,temperature_mk,n_1,entropy,error"),
        (["calibrate", "--temperature-mk", "0"], "da0_joule,target_occupancy"),
    ],
    ids=["entangle-default", "entangle-mixed-tokens", "calibrate-cold"],
)
def test_keys_a_command_reads_still_run(args, header, tmp_path):
    out = tmp_path / "x.csv"
    assert main([*args, "--target-occupancy", "0.1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# " + header
    assert lines[-1] == "# status: ok"


def test_sweep_evaluates_each_temperature_once(monkeypatch):
    # one drive evaluation for the grid, one qutrit batch per T > 0
    calls = _count_calls(monkeypatch, "density_matrix")
    drive_calls = _count_mode_response(monkeypatch)
    cfg = parse_config(
        MINIMAL + "theta_steps = 1000\ntemperature_mk = 0,25,40\n"
        "observables = entropy,f_noon\n"
    )
    _, failures = run_sweep(cfg)
    assert failures == 0
    assert calls == {"density_matrix": 2} and len(drive_calls) == 1


def test_broadband_builds_one_correlation_set(tmp_path, monkeypatch):
    # both columns read the same T = 0 set
    calls = _count_calls(monkeypatch, "g2_zero_temperature")
    args = ["broadband", "--target-occupancy", "0.1", "--theta-steps", "50",
            "--out", str(tmp_path / "bb.csv")]
    assert main(args) == 0
    assert calls == {"g2_zero_temperature": 1}


def test_broadband_evaluates_the_grid_once(tmp_path, monkeypatch):
    # the calibration's one drive evaluation serves the grid
    calls = _count_mode_response(monkeypatch)
    args = ["broadband", "--target-occupancy", "0.1", "--theta-steps", "50",
            "--out", str(tmp_path / "bb.csv")]
    assert main(args) == 0
    assert len(calls) == 1


ONE_DRIVE_RUNS = {
    "sweep": ["--theta-steps", "5"],
    "spectrum": ["--theta-rad", "0.9"],
    "time-delay": ["--theta-rad", "0.9"],
    "broadband": ["--theta-steps", "5"],
    "entangle": ["--theta-rad", "0.9", "--temperature-mk", "25"],
    "calibrate": ["--theta-steps", "5"],
    "oracle-check": ["--theta-rad", "0.9"],
}
AMPLITUDES = {"calibrated": ["--target-occupancy", "0.1"], "given": ["--da0-joule", "1e-26"]}


@pytest.mark.parametrize(
    "command, amplitude",
    [(command, amplitude) for command in ONE_DRIVE_RUNS for amplitude in AMPLITUDES
     if command != "calibrate" or amplitude == "calibrated"],
)
def test_every_run_evaluates_the_drive_once(command, amplitude, monkeypatch):
    calls = _count_mode_response(monkeypatch)
    assert main([command, *ONE_DRIVE_RUNS[command], *AMPLITUDES[amplitude]]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "topology", [["--n", "2"], ["--topology", "ring", "--n", "64"]],
    ids=["chain-2", "ring-64"],
)
def test_broadband_is_four_thirds_of_band_centre_g2(topology, tmp_path):
    # G2(0) / sqrt(G1 G1) in band-centre photon units is 4/3 of g2 at T = 0
    grid = ["--target-occupancy", "0.1", "--theta-steps", "40", *topology]
    bb, sweep = tmp_path / "bb.csv", tmp_path / "sweep.csv"
    assert main(["broadband", *grid, "--out", str(bb)]) == 0
    assert main(["sweep", *grid, "--observables", "g2_1_1,g2_1_2",
                 "--temperature-mk", "0", "--out", str(sweep)]) == 0

    def cells(path, first):
        rows = [l.split(",") for l in path.read_text().splitlines()
                if not l.startswith("#")]
        return np.array([[float(c) for c in r[first:first + 2]] for r in rows])

    got, band = cells(bb, 1), cells(sweep, 3)
    assert np.array_equal(cells(bb, 0)[:, 0], cells(sweep, 0)[:, 0])  # same thetas
    np.testing.assert_allclose(got, 4.0 / 3.0 * band, rtol=1e-14, atol=0.0)


def _point_cells(tokens, modes, spectrum, temp):
    """Value cells of one sweep row, or its error cell, from per-point calls."""
    from dcearray import correlations as co
    from dcearray import quantum_state as qs
    from dcearray.errors import DceArrayError

    corr = tdm = None
    values = []
    try:
        for token in tokens:
            name, *guides = token.split("_")
            if name == "cs":
                name, guides = "cs_violation", guides[1:]
            ij = [int(g) - 1 for g in guides]
            if name in ("n", "g2", "cs_violation"):
                if corr is None:
                    corr = (co.g2_zero_temperature(modes, spectrum) if temp == 0.0
                            else co.g2_thermal(modes, spectrum, temp))
                if name == "n":
                    values.append(corr.intensities[ij[0]])
                elif name == "g2":
                    values.append(corr.g2(*ij))
                else:
                    values.append(co.cauchy_schwarz_violation(corr, *ij))
            else:
                if tdm is None and temp == 0.0:
                    tdm = qs.perturbative_density_matrix(modes, spectrum)
                elif tdm is None:
                    tdm = qs.density_matrix(qs.output_gaussian(modes, spectrum, temp))
                value = {"entropy": qs.von_neumann_entropy, "f_noon": qs.noon_fidelity,
                         "f_eq10": qs.maximally_entangled_fidelity}[name]
                values.append(value(tdm))
    except DceArrayError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return values, ""


@pytest.mark.parametrize(
    "config, failed",
    [
        ("da0_joule = 0\ntheta_steps = 3\ntemperature_mk = 0,25\n"
         "observables = n_1,g2_1_2,entropy\n", 3),
        ("da0_joule = 0\ntheta_steps = 3\ntemperature_mk = 0,25\n"
         "observables = entropy,n_1,g2_1_2\n", 3),
        (MINIMAL + "n = 3\ntheta_steps = 7\n"
         "observables = n_1,cs_violation_1_2,cs_violation_1_3\n", 7),
        (MINIMAL + "topology = ring\nn = 31\ntheta_steps = 25\n"
         "temperature_mk = 0,25\nobservables = n_1,g2_1_1,g2_1_16\n", 0),
    ],
    ids=["failed-cold-rows", "failed-cold-rows-qutrit-first", "asymmetric", "ring-31"],
)
def test_batched_grid_matches_point_evaluation(config, failed):
    from dataclasses import replace

    from dcearray.cli import _prepare
    from dcearray.drive import mode_response

    cfg = parse_config(config)
    spectrum, drive, _ = _prepare(cfg)
    lines, failures = _sweep_lines(cfg)
    assert failures == failed
    rows = [line.split(",") for line in lines[1:-1]]
    points = [(t, theta) for t in cfg.temperatures for theta in cfg.drive.theta.tolist()]
    assert len(rows) == len(points)
    messages = set()
    for row, (temp, theta) in zip(rows, points):
        assert row[:3] == ["%.17g" % theta, "%.17g" % cfg.drive.phi, "%.17g" % temp]
        modes = mode_response(replace(drive, theta=theta), cfg.line, spectrum)
        values, error = _point_cells(cfg.observables, modes, spectrum, temp * 1e-3)
        assert row[-1] == error
        if values is None:
            assert row[3:-1] == [""] * len(cfg.observables)
            messages.add(error)
            continue
        for cell, value in zip(row[3:-1], values):
            got = float(cell)
            assert abs(got - value) <= 1e-12 * abs(value) + 1e-15, (cell, value)
    if failed == 7:  # each message embeds its point's own intensities
        assert len(messages) > 1
        assert all(m.startswith("AsymmetricModes: intensities N_0=") for m in messages)


def _cell_by_cell_lines(cfg):
    """run_sweep's lines built one row and one cell at a time, as a reference.

    Each token's batch column is taken as its value returns it, failed points
    holding their errors (``with_errors``); a row fails on its first error
    cell in token order.
    """
    from dcearray.cli import _observable, _prepare
    from dcearray.errors import DceArrayError

    spectrum, _, modes = _prepare(cfg)
    header = ["theta", "phi", "temperature_mk", *cfg.observables, "error"]
    lines = ["# " + ",".join(header)]
    failures = 0
    for temp in cfg.temperatures:
        states, columns = {}, []
        for state, value, indices in map(_observable, cfg.observables):
            if state not in states:
                states[state] = state(modes, spectrum, temp * 1e-3)
            column = value(states[state], *indices)
            columns.append(column.tolist())
        for theta, cells in zip(cfg.drive.theta.tolist(), zip(*columns)):
            row = ["%.17g" % theta, "%.17g" % cfg.drive.phi, "%.17g" % temp]
            error = next((c for c in cells if isinstance(c, DceArrayError)), None)
            if error is None:
                row += ["%.17g" % c for c in cells] + [""]
            else:
                row += [""] * len(cells) + [f"{type(error).__name__}: {error}"]
                failures += 1
            lines.append(",".join(row))
    status = f"partial ({failures} of {len(lines) - 1} points failed)"
    lines.append(f"# status: {status if failures else 'ok'}")
    return lines


@pytest.mark.parametrize(
    "config, errors",
    [
        # every point of both batches fails on cs_violation_1_2
        (MINIMAL + "n = 3\ntheta_steps = 7\ntemperature_mk = 0,25\n"
         "observables = n_1,cs_violation_1_2,cs_violation_1_3\n",
         ["AsymmetricModes: intensities N_0="] * 14),
        # only theta = 0 fails, in the middle of the cold batch
        (MINIMAL + "n = 1\ntheta_start = -1\ntheta_end = 1\ntheta_steps = 5\n"
         "temperature_mk = 0,25\nobservables = n_1,g2_1_1\n",
         ["", "", "ZeroIntensity: some waveguide emits no photons"] + [""] * 7),
        # both states fail in the cold batch: the first token with an error
        # cell decides, and n_1 has none
        ("da0_joule = 0\ntheta_steps = 3\ntemperature_mk = 0,25\n"
         "observables = entropy,n_1,g2_1_2\n",
         ["ZeroIntensity: no pair amplitude"] * 3 + [""] * 3),
        ("da0_joule = 0\ntheta_steps = 3\ntemperature_mk = 0,25\n"
         "observables = n_1,g2_1_2,entropy\n",
         ["ZeroIntensity: some waveguide emits no photons"] * 3 + [""] * 3),
    ],
    ids=["asymmetric", "one-failed-row", "qutrit-first", "intensity-first"],
)
def test_batch_rows_match_cell_by_cell_formatting(config, errors):
    cfg = parse_config(config)
    lines, failures = _sweep_lines(cfg)
    assert lines == _cell_by_cell_lines(cfg)
    assert failures == sum(map(bool, errors))
    for row, error in zip(lines[1:-1], errors, strict=True):
        cell = row.rsplit(",", 1)[1]
        assert cell.startswith(error) and bool(cell) == bool(error)


def test_a_failed_row_prints_its_message_verbatim():
    # a "%" in an error message is text, not a directive of the batch's template
    from dcearray.cli import _tabulate
    from dcearray.errors import NonFinite

    thetas = np.array([0.25, 0.5, 0.75])
    cold = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])]
    warm = [np.array([7.0, 8.0, 9.0]), np.array([0.1, 0.2, 0.3])]
    error = NonFinite("100% of %s and %.17g cells")
    ok, _ = _tabulate(("theta",), ("a", "b"), thetas, [(",0", cold, {}), (",25", warm, {})])
    chunks, failures = _tabulate(
        ("theta",), ("a", "b"), thetas, [(",0", cold, {1: error}), (",25", warm, {})]
    )
    lines, reference = "".join(chunks).splitlines(), "".join(ok).splitlines()
    assert failures == 1
    assert lines[2] == "0.5,0,,,NonFinite: 100% of %s and %.17g cells"
    assert lines[:2] + lines[3:-1] == reference[:2] + reference[3:-1]
    assert lines[-1] == "# status: partial (1 of 6 points failed)"


def test_sweep_returns_one_chunk_per_temperature():
    cfg = parse_config(MINIMAL + "theta_steps = 1500\ntemperature_mk = 0,25,40\n")
    chunks, failures = run_sweep(cfg)
    assert failures == 0
    assert len(chunks) == 1 + 3 + 1
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert [chunk.count("\n") for chunk in chunks] == [1, 1500, 1500, 1500, 1]


def _calibrated_point(topology, theta, target):
    """(spectrum, line, drive, modes) of the CLI defaults, calibrated at ``theta``.

    ``theta`` is one angle, or an array of them that the drive runs as a batch.
    """
    from dcearray.drive import DriveParams, LineParams, calibrate_da0_over_grid
    from dcearray.lattice import build_laplacian, eigendecompose

    spectrum = eigendecompose(build_laplacian(topology))
    line = LineParams(z0=55.0)
    seed = DriveParams(a0=1e-23, da0=1e-23 * 1e-3, phi=math.pi / 4.0, theta=theta,
                       omega_d=2.0 * math.pi * 10.3e9)
    return spectrum, line, *calibrate_da0_over_grid(seed, line, spectrum, target)


def _spectrum_lines(theta, temps_mk):
    from dcearray.lattice import ArrayTopology
    from dcearray.spectral import omega_grid, photon_flux_density

    spectrum, _, _, modes = _calibrated_point(ArrayTopology.ring(64), theta, 0.1)
    omegas = omega_grid(modes.omega_d)
    lines = ["# omega_rad_s,temperature_mk,flux_1"]
    for t_mk in temps_mk:
        flux = photon_flux_density(0, omegas, modes, spectrum, t_mk * 1e-3)
        lines += ["%.17g,%.17g,%.17g" % (w, t_mk, f) for w, f in zip(omegas, flux)]
    return lines + ["# status: ok"]


def _time_delay_lines(theta):
    from dcearray.lattice import ArrayTopology
    from dcearray.spectral import TAU_GRID, g2_broadband

    spectrum, line, _, modes = _calibrated_point(ArrayTopology.ring(64), theta, 0.1)
    tau = TAU_GRID / modes.omega_d
    g11 = g2_broadband(0, 0, tau, modes, spectrum, line)
    g12 = g2_broadband(0, 1, tau, modes, spectrum, line)
    lines = ["# omega_d_tau,g2_broadband_1_1,g2_broadband_1_2"]
    lines += ["%.17g,%.17g,%.17g" % row for row in zip(TAU_GRID, g11, g12)]
    return lines + ["# status: ok"]


def _calibrate_lines(theta, target):
    from dcearray.lattice import ArrayTopology

    _, _, drive, _ = _calibrated_point(ArrayTopology.open_chain(2), theta, target)
    return ["# da0_joule,target_occupancy", "%.17g,%.17g" % (drive.da0, target),
            "# status: ok"]


def _oracle_check_lines(theta, target, t_mk):
    from dcearray.lattice import ArrayTopology
    from dcearray.quantum_state import (
        density_matrix, output_gaussian, thermal_occupation, wick_moment,
    )

    spectrum, _, _, modes = _calibrated_point(ArrayTopology.open_chain(2), theta, target)
    temp = t_mk * 1e-3
    state = output_gaussian(modes, spectrum, temp)
    ref = oracle.build_state(
        modes.eps, spectrum.modes, cutoff=28, deficit_tol=1e-6,
        n_thermal=thermal_occupation(modes.omega_d / 2.0, temp),
    )
    moments = oracle.normal_moments(ref)
    words = {  # normal-ordered words and their (dagger, lowering) counts per mode
        ((0, True), (0, False)): ((1, 0), (1, 0)),
        ((0, True), (1, False)): ((1, 0), (0, 1)),
        ((0, False), (1, False)): ((0, 0), (1, 1)),
        ((0, True), (0, True), (0, False), (0, False)): ((2, 0), (2, 0)),
        ((0, True), (1, True), (0, False), (1, False)): ((1, 1), (1, 1)),
    }
    moment_err = 0.0
    for word, key in words.items():
        moment_err = max(moment_err, abs(wick_moment(state, list(word)) - moments[key]))
    rho_ref = oracle.fock_block(ref, levels=3)
    rho_ref /= np.trace(rho_ref).real
    rho = density_matrix(state, post_select=False).rho
    rho_err = float(np.max(np.abs(rho - rho_ref)))
    return ["# max_moment_error,max_rho_error", "%.17g,%.17g" % (moment_err, rho_err),
            "# status: ok"]


def _entangle_lines(thetas, target, temps_mk):
    from dcearray.lattice import ArrayTopology
    from dcearray.quantum_state import (
        density_matrix, maximally_entangled_fidelity, noon_fidelity, output_gaussian,
        von_neumann_entropy,
    )

    chain = ArrayTopology.open_chain(2)
    spectrum, _, _, modes = _calibrated_point(chain, thetas, target)
    lines = ["# theta,phi,temperature_mk,entropy,f_noon,f_eq10,error"]
    first = None
    for t_mk in temps_mk:
        tdm = density_matrix(output_gaussian(modes, spectrum, t_mk * 1e-3))
        first = tdm.rho[0] if first is None else first
        values = (von_neumann_entropy(tdm), noon_fidelity(tdm),
                  maximally_entangled_fidelity(tdm))
        lines += ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g," % (theta, math.pi / 4.0,
                                                           t_mk, *cells)
                  for theta, *cells in zip(thetas, *values)]
    lines.append("# status: ok")
    if len(thetas) == 1:  # a single-theta run dumps the rho of its row
        lines.append("# rho: rows |n1 n2>, re/im pairs for the 9 columns")
        lines += [",".join("%.17g" % x for x in row) for row in first.view(float)]
    return lines


RING64 = ["--topology", "ring", "--n", "64", "--target-occupancy", "0.1"]
WARM_POINT = ["--target-occupancy", "0.3", "--theta-rad", "1.3"]


@pytest.mark.parametrize(
    "args, reference",
    [
        (["spectrum", *RING64, "--theta-rad", "1.1", "--temperature-mk", "0,25"],
         lambda: _spectrum_lines(1.1, (0.0, 25.0))),
        (["time-delay", *RING64, "--theta-rad", "2.0"], lambda: _time_delay_lines(2.0)),
        (["calibrate", *WARM_POINT], lambda: _calibrate_lines(1.3, 0.3)),
        (["oracle-check", *WARM_POINT, "--temperature-mk", "25"],
         lambda: _oracle_check_lines(1.3, 0.3, 25.0)),
        (["entangle", "--target-occupancy", "0.1", "--theta-start", "0.3",
          "--theta-end", "2.8", "--theta-steps", "6", "--temperature-mk", "25,40"],
         lambda: _entangle_lines(np.linspace(0.3, 2.8, 6), 0.1, (25.0, 40.0))),
        (["entangle", *WARM_POINT, "--temperature-mk", "40"],
         lambda: _entangle_lines(np.array([1.3]), 0.3, (40.0,))),
    ],
    ids=["spectrum-ring64", "time-delay-ring64", "calibrate", "oracle-check-cutoff28",
         "entangle-grid-25-40mk", "entangle-point-rho"],
)
def test_table_commands_match_library_calls(args, reference, tmp_path):
    # each cell is the %.17g of the library value, row by row
    out = tmp_path / "table.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == ("\n".join(reference()) + "\n").encode()


def test_one_step_entangle_grid_dumps_rho_as_theta_rad(tmp_path):
    # a grid of one theta is a run over one theta, rho dump included
    base = ["entangle", "--target-occupancy", "0.1", "--temperature-mk", "25"]
    grid, point = tmp_path / "grid.csv", tmp_path / "point.csv"
    assert main([*base, "--theta-start", "1.3", "--theta-steps", "1", "--out", str(grid)]) == 0
    assert main([*base, "--theta-rad", "1.3", "--out", str(point)]) == 0
    assert "# rho: " in point.read_text()
    assert grid.read_bytes() == point.read_bytes()


# The values the fuzz draws per config key: (valid ones, ones that
# parse_config rejects).  The one invalid out is a directory, so no run
# writes a file.
FUZZ_VALUES = {
    "topology": (["open_chain", "ring"], ["star"]),
    "n": (["1", "2", "3", "4"], ["0", "two"]),
    "a0_joule": (["1e-23", "3e-23"], ["-1e-23", "nan"]),
    "da0_joule": (["0", "1e-26", "5e-26"], ["-1e-26", "inf"]),
    "target_occupancy": (["0.05", "0.1", "0.3"], ["0", "1.5"]),
    "phi_rad": (["0.3", "0.7853981633974483", "1.2", "3"], ["inf"]),
    "theta_rad": (["0", "0.6", "1.3", "2.9", "-0.4", "-1e-3"], ["nan"]),
    "theta_start": (["0", "-1", "0.5", "-2e-1"], ["x"]),
    "theta_end": (["1", "3.14"], ["inf"]),
    "theta_steps": (["1", "2", "3", "5"], ["0", "2.5"]),
    "omega_d_rad_s": (["6.47e10", "3e10"], ["-1"]),
    "z0_ohm": (["50"], ["0"]),
    "temperature_mk": (["0", "25", "40", "0,25", "0,0"], ["-5", "25,"]),
    "observables": (["n_1", "n_1,g2_1_2", "g2_1_1,cs_violation_1_2", "entropy",
                     "f_noon,n_2", "n_1,f_eq10,g2_2_2"], ["g2_1_5", "bogus"]),
    "out": ([], ["."]),
}


# The ConfigError subclass and message parse_config raises for each invalid
# value of FUZZ_VALUES, given alone to a config that is otherwise valid.
REJECTIONS = {
    ("topology", "star"): "topology must be open_chain or ring, got 'star'",
    ("n", "0"): "sweep needs n >= 1, got n = 0",
    ("n", "two"): "n='two' is not an integer",
    ("a0_joule", "-1e-23"): "a0_joule must be positive, got -1e-23",
    ("a0_joule", "nan"): "a0_joule='nan' is not finite",
    ("da0_joule", "-1e-26"): "da0_joule must be non-negative, got -1e-26",
    ("da0_joule", "inf"): "da0_joule='inf' is not finite",
    ("target_occupancy", "0"): "target_occupancy must lie in (0, 1), got 0.0",
    ("target_occupancy", "1.5"): "target_occupancy must lie in (0, 1), got 1.5",
    ("phi_rad", "inf"): "phi_rad='inf' is not finite",
    ("theta_rad", "nan"): "theta_rad='nan' is not finite",
    ("theta_start", "x"): "theta_start='x' is not a number",
    ("theta_end", "inf"): "theta_end='inf' is not finite",
    ("theta_steps", "0"): "theta_steps must be at least 1, got 0",
    ("theta_steps", "2.5"): "theta_steps='2.5' is not an integer",
    ("omega_d_rad_s", "-1"): "omega_d_rad_s must be positive, got -1.0",
    ("z0_ohm", "0"): "z0_ohm must be positive, got 0.0",
    ("temperature_mk", "-5"): "temperature_mk must be non-negative, got -5.0",
    ("temperature_mk", "25,"): "temperature_mk='' is not a number",
    ("observables", "g2_1_5"): "observable 'g2_1_5' indexes outside 1..2",
    ("observables", "bogus"): "unrecognized observable token 'bogus'",
    ("out", "."): "out='.' is not a file in an existing directory",
}


@pytest.mark.parametrize(
    "key, value", [(k, v) for k, (_, bad) in FUZZ_VALUES.items() for v in bad]
)
def test_each_invalid_value_has_its_own_message(key, value):
    text = f"{key} = {value}\n"
    if key not in ("da0_joule", "target_occupancy"):
        text += MINIMAL
    with pytest.raises(RangeError) as info:
        parse_config(text)
    assert type(info.value) is RangeError
    assert str(info.value) == REJECTIONS[key, value]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--da0-joule", "-1e-26"], "da0_joule must be non-negative, got -1e-26"),
        (["--a0-joule", "-1e-23", "--target-occupancy", "0.1"],
         "a0_joule must be positive, got -1e-23"),
    ],
    ids=["da0", "a0"],
)
def test_bare_negative_exponent_reaches_the_key_parser(args, message, capsys):
    assert main(["sweep", *args]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "args, thetas",
    [
        (["--theta-rad", "-1e-3"], ["-0.001"]),
        (["--theta-start", "-1e-3", "--theta-end", "1", "--theta-steps", "3"],
         ["%.17g" % theta for theta in np.linspace(-1e-3, 1, 3)]),
    ],
    ids=["point", "grid"],
)
def test_bare_negative_exponent_is_a_flag_value(args, thetas, capsys):
    assert main(["sweep", "--target-occupancy", "0.1", *args]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split(",")[0] for row in rows] == thetas


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--theta-rad", "-inf", "theta_rad='-inf' is not finite"),
        ("--theta-rad", "-nan", "theta_rad='-nan' is not finite"),
        ("--temperature-mk", "-5,25", "temperature_mk must be non-negative, got -5.0"),
    ],
    ids=["inf", "nan", "temperatures"],
)
def test_bare_dash_word_reaches_the_key_parser(flag, value, message, capsys):
    base = ["sweep", "--target-occupancy", "0.1"]
    for args in ([flag, value], [f"{flag}={value}"]):
        assert main(base + args) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_flag_without_a_value_stays_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--target-occupancy", "0.1", "--theta-rad"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["-h", "--n"])
def test_option_after_a_flag_stays_an_option(option, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--target-occupancy", "0.1", "--theta-rad", option, "2"])
    assert info.value.code == 2
    assert "argument --theta-rad: expected one argument" in capsys.readouterr().err


def test_readme_key_table_names_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| key |", 1)[1].split("\n\n")[0]
    rows = table.splitlines()[2:]  # after the header and its rule
    named = [k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert named == list(CONFIG_KEYS)


def test_readme_names_every_observable_token():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("\nObservable tokens:", 1)[1].split("\n\n")[0]
    named = re.findall(r"`(\w+)`", sentence)
    assert named == [name + "".join("_" + "ij"[k] for k in range(count))
                     for name, (count, _, _) in _OBSERVABLES.items()]


def test_readme_subcommand_table_mirrors_the_rows():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| subcommand |", 1)[1].split("\n\n")[0]
    rows = [[c.strip() for c in row.split("|")[1:-1]] for row in table.splitlines()[2:]]
    temperatures = {None: "any", 1: "one", 0: "none"}
    assert rows == [
        [f"`{name}`", "grid" if reads.grid else "one", temperatures[reads.temperatures],
         "yes" if reads.observables else "no", str(reads.min_n)]
        for name, reads in _COMMANDS.items()
    ]


@st.composite
def _cli_argv(draw):
    """A subcommand and its config flags: mostly an amplitude and one theta,
    up to four other keys, and all values valid but at most one.  Every key
    of CONFIG_KEYS needs an entry in FUZZ_VALUES."""
    amplitude = draw(st.sampled_from(["target_occupancy", "da0_joule"] * 2 + [None]))
    angle = draw(st.sampled_from(["theta_rad", None]))
    keys = draw(st.lists(
        st.sampled_from([k for k in CONFIG_KEYS if FUZZ_VALUES[k][0]]),
        max_size=4, unique=True,
    ))
    values = {key: draw(st.sampled_from(FUZZ_VALUES[key][0]))
              for key in [amplitude, angle, *keys] if key}
    bad = draw(st.sampled_from([None] * 3 * len(CONFIG_KEYS) + list(CONFIG_KEYS)))
    if bad:
        values[bad] = draw(st.sampled_from(FUZZ_VALUES[bad][1]))
    argv = [draw(st.sampled_from(sorted(SUBCOMMANDS)))]
    flags = {f"--{k.replace('_', '-')}": v for k, v in values.items()}
    if draw(st.booleans()):  # the two-word form, --key value
        return argv + [word for pair in flags.items() for word in pair]
    return argv + [f"{flag}={v}" for flag, v in flags.items()]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(argv=_cli_argv())
def test_any_command_line_fails_cleanly_or_writes_finite_rows(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    err = stderr.getvalue()
    assert "Traceback" not in err
    if rc == 1:
        assert err.startswith(("config error:", "error:")), err
        assert stdout.getvalue() == ""
        return
    assert rc in (0, 2), rc
    lines = stdout.getvalue().splitlines()
    status = next(k for k, line in enumerate(lines) if line.startswith("# status: "))
    rows = [line.split(",") for line in lines[1:status]]
    failures = 0
    if lines[0].endswith(",error"):  # a failed row's value cells are empty
        failures = sum(1 for row in rows if row[-1])
        rows = [row[:-1] for row in rows if not row[-1]]
    rows += [line.split(",") for line in lines[status + 2:]]  # an entangle rho dump
    for row in rows:
        assert all(math.isfinite(float(c)) for c in row), row
    total = status - 1
    expected = f"partial ({failures} of {total} points failed)" if failures else "ok"
    assert lines[status] == f"# status: {expected}"
    assert rc == (2 if failures else 0)


# Command lines that pass every parse-time check, yet whose drive overflows
# double precision (inf or nan), with the exit code each must give: a grid
# fails each such point in its own row (2), any other command fails (1).
OVERFLOWING = [
    (["calibrate", "--theta-rad", "1", "--target-occupancy", "0.1",
      "--a0-joule", "1e-160"], 1),
    (["calibrate", "--theta-rad", "1", "--target-occupancy", "0.1",
      "--omega-d-rad-s", "1e300"], 1),
    (["sweep", "--theta-steps", "3", "--temperature-mk", "0,25",
      "--a0-joule", "1e-160", "--target-occupancy", "0.1"], 1),
    (["sweep", "--theta-steps", "3", "--temperature-mk", "25",
      "--a0-joule", "1e-150", "--da0-joule", "1e-152"], 2),
    (["sweep", "--theta-steps", "3", "--a0-joule", "1e-150", "--da0-joule", "1e-152"], 2),
    (["sweep", "--theta-steps", "3", "--omega-d-rad-s", "1e160", "--da0-joule", "1e-26"], 2),
    (["broadband", "--theta-steps", "3", "--a0-joule", "1e-160", "--da0-joule", "1e-162"], 2),
    (["time-delay", "--theta-rad", "1", "--a0-joule", "1e-160", "--da0-joule", "1e-162"], 1),
    (["spectrum", "--theta-rad", "1", "--omega-d-rad-s", "1e300",
      "--da0-joule", "1e-26"], 1),
    (["entangle", "--theta-steps", "3", "--temperature-mk", "25",
      "--a0-joule", "1e-150", "--da0-joule", "1e-152"], 2),
    (["entangle", "--theta-steps", "3", "--a0-joule", "1e-160",
      "--da0-joule", "1e-152"], 2),
    (["entangle", "--theta-steps", "3", "--a0-joule", "1e-160", "--da0-joule", "1e-162"], 2),
    (["oracle-check", "--theta-rad", "1", "--a0-joule", "1e-160",
      "--da0-joule", "1e-162"], 1),
]


@pytest.mark.parametrize(
    "args, code", OVERFLOWING,
    ids=["calibrate-a0", "calibrate-omega-d", "sweep-calibrated-a0", "sweep-25mk-a0",
         "sweep-0k-a0", "sweep-omega-d", "broadband-v", "time-delay-v", "spectrum-omega-d",
         "entangle-singular", "entangle-0k-a0", "entangle-0k-v", "oracle-check-eigh"],
)
def test_overflowing_drive_fails_its_points_or_its_run(args, code, capsys):
    assert main(args) == code  # an uncaught error fails the test
    out, err = capsys.readouterr()
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    header, *rows, status = out.splitlines()
    lead = 1 if args[0] == "broadband" else 3  # theta, or theta, phi and T
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert cells[lead:-1] == [""] * (len(cells) - lead - 1), row
        assert cells[-1].startswith("NonFinite: "), row
    assert status == f"# status: partial ({len(rows)} of {len(rows)} points failed)"


def test_entangle_fails_its_non_psd_points_alone(capsys):
    args = ["entangle", "--theta-steps", "50", "--temperature-mk", "25",
            "--a0-joule", "1e-25", "--da0-joule", "3e-25"]
    assert main(args) == 2
    header, *rows, status = capsys.readouterr().out.splitlines()
    failed = [row for row in rows if not row.endswith(",")]
    assert len(failed) == 9 and status == "# status: partial (9 of 50 points failed)"
    for row in failed:
        assert ",,,,NotNormalized: reduced state has eigenvalue -" in row, row
    for row in rows:
        if row not in failed:
            assert all(math.isfinite(float(c)) for c in row[:-1].split(",")), row


def test_ring_of_two_guides_is_a_config_error(capsys):
    assert main(["sweep", "--topology", "ring", "--n", "2", "--da0-joule", "1e-26"]) == 1
    err = capsys.readouterr().err
    assert err == "config error: ring topology needs n >= 3, got n=2\n"


def test_config_file_comments_blank_lines_and_bare_words(tmp_path, capsys):
    text = "# a comment\n\n   \n" + MINIMAL + "  # indented\n"
    assert repr(parse_config(text)) == repr(parse_config(MINIMAL))
    config = tmp_path / "run.cfg"
    config.write_text("theta_rad\n")
    assert main(["sweep", "--config", str(config), "--target-occupancy", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err == "config error: line 1: expected key=value, got 'theta_rad'\n"


def test_oracle_check_fails_when_no_register_holds_the_state(capsys):
    args = ["oracle-check", "--target-occupancy", "0.6", "--theta-rad", "1.3",
            "--temperature-mk", "40"]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: top Fock level holds 1.12e-05 > 1e-06 after squeezing\n"
