"""Command-line driver: key=value configs, parameter sweeps, CSV output.

Configs are UTF-8 ``key=value`` lines, optionally layered with command-line
overrides that mirror the keys (``--theta-start`` for ``theta_start`` and so
on).  Every subcommand emits CSV with '#'-prefixed header and status lines,
17 significant digits, and deterministic row order, so reruns with the same
config are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle
from .correlations import (
    cauchy_schwarz_violation,
    g2_thermal,
    g2_zero_temperature,
)
from .drive import DriveParams, LineParams, calibrate_da0_over_grid, mode_response
from .errors import (
    ConfigError,
    CutoffTooSmall,
    DceArrayError,
    MissingRequired,
    NonFinite,
    RangeError,
    UnknownKey,
)
from .lattice import ArrayTopology, build_laplacian, eigendecompose
from .quantum_state import (
    density_matrix,
    maximally_entangled_fidelity,
    noon_fidelity,
    output_gaussian,
    perturbative_density_matrix,
    thermal_occupation,
    von_neumann_entropy,
    wick_moment,
)
from .spectral import (
    TAU_GRID,
    g2_broadband,
    g2_broadband_normalized,
    omega_grid,
    photon_flux_density,
)

__all__ = ["RunConfig", "parse_config", "run_sweep", "main"]

def _correlations(modes, spectrum, temperature):
    """Band-centre correlations: leading order at T = 0, else Gaussian."""
    if temperature == 0.0:
        return g2_zero_temperature(modes, spectrum)
    return g2_thermal(modes, spectrum, temperature)


def _qutrit_state(modes, spectrum, temperature):
    """Post-selected two-qutrit state (n = 2): leading order at T = 0, else Gaussian."""
    if temperature == 0.0:
        return perturbative_density_matrix(modes, spectrum)
    return density_matrix(output_gaussian(modes, spectrum, temperature))


# The observable grammar: a token is a name and one ``_<guide>`` (1-based) per
# index.  Name -> (index count, state it reads, value from state and 0-based
# indices).  States and values cover a batch of points at once.  The values
# call the library through this module's names, so a wrapper bound over one
# of them (as the bench tracer does) sees each call.
_OBSERVABLES = {
    "n": (1, _correlations, lambda corr, i: corr.intensities[..., i]),
    "g2": (2, _correlations, lambda corr, i, j: corr.g2(i, j)),
    "cs_violation": (
        2, _correlations, lambda corr, i, j: cauchy_schwarz_violation(corr, i, j)
    ),
    "entropy": (0, _qutrit_state, lambda tdm: von_neumann_entropy(tdm)),
    "f_noon": (0, _qutrit_state, lambda tdm: noon_fidelity(tdm)),
    "f_eq10": (0, _qutrit_state, lambda tdm: maximally_entangled_fidelity(tdm)),
}
_TOKEN_RE = re.compile(r"([a-z][a-z0-9_]*?)((?:_\d+)*)")
_QUTRIT_OBS = tuple(k for k, v in _OBSERVABLES.items() if v[1] is _qutrit_state)
_MIN_N = {"time-delay": 2, "broadband": 2}  # they report guide 2 as well
# Subcommands that read one theta, no temperature, or no observables
_ONE_THETA = ("spectrum", "time-delay", "oracle-check")
_NO_TEMPERATURE = ("time-delay", "broadband", "calibrate")
_NO_OBSERVABLES = ("spectrum", "time-delay", "broadband", "calibrate", "oracle-check")


@dataclass(frozen=True)
class RunConfig:
    """Validated sweep configuration."""

    topology: ArrayTopology
    a0: float                 # J
    da0: float | None         # J; exactly one of da0 / target_occupancy is set
    target_occupancy: float | None
    phi: float                # rad
    thetas: np.ndarray        # rad, the sweep grid (length 1 for a point run)
    single_theta: bool
    omega_d: float            # rad/s
    line: LineParams
    temperatures: tuple       # K
    observables: tuple        # validated header tokens
    out: str | None           # output path, None for stdout


def _observable(token: str) -> tuple | None:
    """(state, value function, 0-based guide indices) of a token, or None."""
    match = _TOKEN_RE.fullmatch(token)
    if match is None or match[1] not in _OBSERVABLES:
        return None
    n_indices, state, value = _OBSERVABLES[match[1]]
    indices = tuple(int(s) - 1 for s in match[2].split("_")[1:])
    return (state, value, indices) if len(indices) == n_indices else None


def _number(kind, rule: str = "", holds=None):
    """A parser of one finite ``kind`` (int or float) that ``holds`` accepts."""

    def parse(key: str, raw: str):
        try:
            value = kind(raw)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise RangeError(f"{key}={raw!r} is not {noun}") from None
        if not math.isfinite(value):
            raise RangeError(f"{key}={raw!r} is not finite")
        if holds is not None and not holds(value):
            raise RangeError(f"{key} must {rule}, got {value}")
        return value

    return parse


_FLOAT = _number(float)
_POSITIVE = _number(float, "be positive", lambda x: x > 0)
_NON_NEGATIVE = _number(float, "be non-negative", lambda x: x >= 0)


def _topology(key: str, raw: str):
    """The constructor of the named array topology."""
    if raw not in ("open_chain", "ring"):
        raise RangeError(f"{key} must be open_chain or ring, got {raw!r}")
    return getattr(ArrayTopology, raw)


def _temperatures(key: str, raw: str) -> tuple:
    """Comma-separated millikelvin, in kelvin."""
    return tuple(_NON_NEGATIVE(key, tok.strip()) * 1e-3 for tok in raw.split(","))


def _tokens(key: str, raw: str) -> tuple:
    """Comma-separated observable tokens; their indices are checked against n."""
    tokens = tuple(tok.strip() for tok in raw.split(","))
    for tok in tokens:
        if _observable(tok) is None:
            raise RangeError(f"unrecognized observable token {tok!r}")
    return tokens


def _out(key: str, raw: str) -> str:
    if os.path.isdir(raw) or not os.path.isdir(os.path.dirname(raw) or "."):
        raise RangeError(f"{key}={raw!r} is not a file in an existing directory")
    return raw


# One row per config key: (default text or None, parser).  A parser turns the
# key's text into its value or raises the RangeError of the key's range rule;
# a default goes through its row's parser as given text does.
CONFIG_KEYS = {
    "topology": ("open_chain", _topology),
    "n": ("2", _number(int)),
    "a0_joule": ("1e-23", _POSITIVE),
    "da0_joule": (None, _NON_NEGATIVE),
    "target_occupancy": (None, _number(float, "lie in (0, 1)", lambda x: 0 < x < 1)),
    "phi_rad": (repr(math.pi / 4.0), _FLOAT),
    "theta_rad": (None, _FLOAT),
    "theta_start": ("0", _FLOAT),
    "theta_end": (repr(math.pi), _FLOAT),
    "theta_steps": ("200", _number(int, "be at least 1", lambda x: x >= 1)),
    "omega_d_rad_s": (repr(2.0 * math.pi * 10.3e9), _POSITIVE),
    "z0_ohm": ("55", _POSITIVE),
    "v_m_s": ("1.2e8", _POSITIVE),
    "temperature_mk": ("0", _temperatures),
    "observables": ("n_1,g2_1_1,g2_1_2", _tokens),
    "out": (None, _out),
}


def _parse_pairs(text: str) -> dict:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UnknownKey(f"unknown configuration key {key!r}")
        pairs[key] = value.strip()
    return pairs


def parse_config(
    text: str, overrides: dict | None = None, command: str = "sweep"
) -> RunConfig:
    """Parse and validate a key=value config, with optional layered overrides.

    Each key's row parses and range-checks its value; the rules here are
    those between keys.  ``command`` names the subcommand: ``entangle``
    without given observables reads its qutrit ones; a key the command would
    ignore, or a config it cannot run, is an error here rather than at run
    time.
    """
    given = _parse_pairs(text)
    for key, value in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise UnknownKey(f"unknown configuration key {key!r}")
        if value is not None:
            given[key] = str(value)
    values = {
        key: parse(key, given.get(key, default))
        for key, (default, parse) in CONFIG_KEYS.items()
        if key in given or default is not None
    }

    n = values["n"]
    n_min = _MIN_N.get(command, 1)
    if n < n_min:
        raise RangeError(f"{command} needs n >= {n_min}, got n = {n}")
    topology = values["topology"](n)
    da0, target = values.get("da0_joule"), values.get("target_occupancy")
    if da0 is not None and target is not None:
        raise RangeError("da0_joule and target_occupancy are mutually exclusive")
    if da0 is None and target is None:
        raise MissingRequired("one of da0_joule or target_occupancy is required")

    single = "theta_rad" in given
    if single:
        if given.keys() & {"theta_start", "theta_end", "theta_steps"}:
            raise RangeError("theta_rad excludes theta_start/theta_end/theta_steps")
        thetas = np.array([values["theta_rad"]])
    else:
        thetas = np.linspace(
            values["theta_start"], values["theta_end"], values["theta_steps"]
        )

    temps = values["temperature_mk"]
    if command in _ONE_THETA and len(thetas) > 1:
        raise RangeError(f"{command} reads one theta, got a grid of {len(thetas)}")
    if command in _NO_TEMPERATURE and temps != (0.0,):
        raise RangeError(f"{command} reads no temperature; temperature_mk must be 0")
    if command in _NO_OBSERVABLES and "observables" in given:
        raise RangeError(f"{command} reads no observables")
    if command == "oracle-check" and len(temps) > 1:
        raise RangeError(f"oracle-check reads one temperature, got {len(temps)}")
    if command == "oracle-check" and n != 2:
        raise RangeError("oracle-check covers n=2 only")
    if command == "calibrate" and target is None:
        raise MissingRequired("calibrate requires target_occupancy")

    observables = values["observables"]
    for tok in observables:
        if not all(0 <= i < n for i in _observable(tok)[2]):
            raise RangeError(f"observable {tok!r} indexes outside 1..{n}")
    if command == "entangle" and "observables" not in given:
        observables = _QUTRIT_OBS
    qutrit = any(t in _QUTRIT_OBS for t in observables)
    if command == "entangle" and not qutrit:
        raise RangeError("entangle observables need one of " + ", ".join(_QUTRIT_OBS))
    if n != 2 and qutrit:
        raise RangeError(f"{', '.join(_QUTRIT_OBS)} need n = 2, got n = {n}")

    return RunConfig(
        topology=topology,
        a0=values["a0_joule"],
        da0=da0,
        target_occupancy=target,
        phi=values["phi_rad"],
        thetas=thetas,
        single_theta=single,
        omega_d=values["omega_d_rad_s"],
        line=LineParams(z0=values["z0_ohm"], v=values["v_m_s"]),
        temperatures=temps,
        observables=observables,
        out=values.get("out"),
    )


def _fmt(value) -> str:
    return "%.17g" % value


def _prepare(config: RunConfig, theta) -> tuple:
    """The preamble of every subcommand: (spectrum, drive at ``theta``), once.

    ``theta`` is the angle or the angle array the command reads; da0 is
    taken as given or calibrated over the theta grid.
    """
    spectrum = eigendecompose(build_laplacian(config.topology))
    seed = config.da0 if config.da0 is not None else config.a0 * 1e-3
    drive = DriveParams(
        a0=config.a0, da0=seed, phi=config.phi, theta=theta, omega_d=config.omega_d
    )
    if config.target_occupancy is not None:
        drive = calibrate_da0_over_grid(
            drive, config.line, spectrum, config.thetas, config.target_occupancy
        )
    return spectrum, drive


def _finite(values, what: str):
    """``values``; NonFinite if one of them is inf or nan."""
    if not np.isfinite(values).all():
        raise NonFinite(f"{what} is not finite; the drive is beyond double precision")
    return values


def _table(header: str, *columns) -> list:
    """CSV lines of a float table: header, one row per index, status line."""
    _finite(columns, f"a value of {header}")
    row = ",".join(["%.17g"] * len(columns))  # as _fmt
    return ["# " + header, *(row % cells for cells in zip(*columns)), "# status: ok"]


def _point_values(specs, modes, spectrum, temperature):
    """Float columns, failures by point and qutrit state of the tokens ``specs``.

    A state is built when a token first reads it.  A failed point keeps its
    first error in token order, the state's before the value's: the error a
    point evaluation raises.  A ``with_errors`` column is split into floats,
    and a value that is inf or nan fails its point with NonFinite.
    """
    states = {}
    columns = []
    failed = {}
    for state, value, indices in specs:
        if state not in states:
            states[state] = state(modes, spectrum, temperature)
            failed = {**states[state].errors, **failed}
        column = value(states[state], *indices)
        if column.dtype == object:  # errors in the cells of failed points
            bad = [k for k, c in enumerate(column) if isinstance(c, DceArrayError)]
            failed = {**{k: column[k] for k in bad}, **failed}
            column[bad] = math.nan
            column = column.astype(float)
        for k in np.flatnonzero(~np.isfinite(column)).tolist():
            failed.setdefault(k, NonFinite(
                f"a value is {column[k]}; the drive is beyond double precision"
            ))
        columns.append(column)
    return columns, failed, states.get(_qutrit_state)


def _tabulate(lead_columns, value_columns, thetas, batches) -> tuple:
    """CSV lines of a grid: header, one row per point, status line.

    A batch (lead, columns, failed) gives each theta a row of the cells
    ``lead`` and the columns of _point_values, by one ``%`` over a row
    template per point; a failed row's value cells stay empty and its error's
    message fills the trailing error column.  Returns (lines, n_failures).
    """
    lines = ["# " + ",".join([*lead_columns, *value_columns, "error"])]
    thetas = [_fmt(theta) for theta in thetas.tolist()]  # shared by the batches
    width = len(value_columns) + 1
    cells = [None] * (len(thetas) * width)
    cells[::width] = thetas
    for lead, columns, failed in batches:
        for c, column in enumerate(columns, start=1):
            cells[c::width] = column.tolist()
        row = "%s" + lead + ",%.17g" * len(columns) + ","  # as _fmt
        rows = ("\n".join([row] * len(thetas)) % tuple(cells)).split("\n")
        for k, error in failed.items():
            rows[k] = f"{thetas[k]}{lead}{',' * width}{type(error).__name__}: {error}"
        lines.extend(rows)
    failures = sum(len(failed) for _, _, failed in batches)
    status = f"partial ({failures} of {len(lines) - 1} points failed)"
    lines.append(f"# status: {status if failures else 'ok'}")
    return lines, failures


def _sweep(config: RunConfig, spectrum, drive) -> tuple:
    """run_sweep's lines and failures, and the qutrit state of the first point.

    The grid runs one batch over the theta array per temperature; the state
    is None when the first point failed or no token reads it.
    """
    specs = [_observable(token) for token in config.observables]
    modes = mode_response(drive, config.line, spectrum)
    batches = []
    first = None
    for temp in config.temperatures:
        columns, failed, tdm = _point_values(specs, modes, spectrum, temp)
        if not batches and tdm is not None and 0 not in failed:
            first = tdm.rho[0]
        batches.append((f",{_fmt(config.phi)},{_fmt(temp * 1e3)}", columns, failed))
    lines, failures = _tabulate(
        ("theta", "phi", "temperature_mk"), config.observables, config.thetas, batches
    )
    return lines, failures, first


def run_sweep(config: RunConfig) -> tuple:
    """Evaluate the (theta, temperature) grid; returns (lines, n_failures).

    One row per grid point ordered by index, observables per the config;
    failed points leave their cells empty and carry the error message in the
    trailing error column.
    """
    lines, failures, _ = _sweep(config, *_prepare(config, config.thetas))
    return lines, failures


def _run_spectrum(config: RunConfig) -> tuple:
    """Photon flux spectral density of waveguide 1 over (0, omega_d)."""
    spectrum, drive = _prepare(config, config.thetas[0])
    modes = mode_response(drive, config.line, spectrum)
    omegas = omega_grid(config.omega_d)
    cells = [None] * (2 * len(omegas))
    cells[::2] = [_fmt(w) for w in omegas.tolist()]
    lines = ["# omega_rad_s,temperature_mk,flux_1"]
    for temp in config.temperatures:
        flux = photon_flux_density(0, omegas, modes, spectrum, temp)
        cells[1::2] = _finite(flux, "a value of flux_1").tolist()
        row = "%s," + _fmt(temp * 1e3) + ",%.17g"  # as _fmt; one % per temperature
        lines.extend(("\n".join([row] * len(omegas)) % tuple(cells)).split("\n"))
    lines.append("# status: ok")
    return lines, 0


def _run_time_delay(config: RunConfig) -> tuple:
    """Broadband G2_11 and G2_12 against the dimensionless delay omega_d*tau."""
    spectrum, drive = _prepare(config, config.thetas[0])
    modes = mode_response(drive, config.line, spectrum)
    tau = TAU_GRID / config.omega_d
    g11 = g2_broadband(0, 0, tau, modes, spectrum, config.line)
    g12 = g2_broadband(0, 1, tau, modes, spectrum, config.line)
    header = "omega_d_tau,g2_broadband_1_1,g2_broadband_1_2"
    return _table(header, TAU_GRID.tolist(), g11.tolist(), g12.tolist()), 0


def _run_broadband(config: RunConfig) -> tuple:
    """Normalized zero-delay broadband correlations, one batch over the theta grid."""
    spectrum, drive = _prepare(config, config.thetas)
    modes = mode_response(drive, config.line, spectrum)
    specs = [(_correlations, g2_broadband_normalized, (0, j)) for j in (0, 1)]
    columns, failed, _ = _point_values(specs, modes, spectrum, 0.0)
    batch = ("", columns, failed)
    return _tabulate(("theta",), ("g2bb_1_1", "g2bb_1_2"), config.thetas, [batch])


def _run_entangle(config: RunConfig) -> tuple:
    """Entropy and fidelities over the grid; single-theta runs also dump rho.

    The dump reuses the state of the first row; a failed point has none.
    """
    lines, failures, rho = _sweep(config, *_prepare(config, config.thetas))
    if config.single_theta and rho is not None:
        lines.append("# rho: rows |n1 n2>, re/im pairs for the 9 columns")
        lines.extend(",".join(map(_fmt, row)) for row in rho.view(float).tolist())
    return lines, failures


def _run_calibrate(config: RunConfig) -> tuple:
    """Report the da0 that meets the target occupancy over the theta grid."""
    _, drive = _prepare(config, config.thetas)
    header = "da0_joule,target_occupancy"
    return _table(header, [drive.da0], [config.target_occupancy]), 0


# oracle-check takes the first of these registers that holds the state, as
# acceptance criterion 6 does; the last covers the corner of its box
_ORACLE_CUTOFFS = (16, 20, 24, 28, 32)


def _run_oracle_check(config: RunConfig) -> tuple:
    """Compare Wick-path moments and rho against the per-mode Fock oracle."""
    spectrum, drive = _prepare(config, config.thetas[0])
    modes = mode_response(drive, config.line, spectrum)
    temp = config.temperatures[0]
    state = output_gaussian(modes, spectrum, temp)
    n_t = thermal_occupation(config.omega_d / 2.0, temp)
    for cutoff in _ORACLE_CUTOFFS:
        try:
            ref = oracle.build_state(
                modes.eps, spectrum.modes, n_thermal=n_t, cutoff=cutoff,
                deficit_tol=1e-6,
            )
            break
        except CutoffTooSmall:
            if cutoff == _ORACLE_CUTOFFS[-1]:
                raise

    moments = oracle.normal_moments(ref)  # keyed (dag_counts, low_counts)
    moment_err = 0.0
    for word in (
        [(0, True), (0, False)],
        [(0, True), (1, False)],
        [(0, False), (1, False)],
        [(0, True), (0, True), (0, False), (0, False)],
        [(0, True), (1, True), (0, False), (1, False)],
    ):
        key = tuple(tuple(word.count((i, d)) for i in (0, 1)) for d in (True, False))
        moment_err = max(moment_err, abs(wick_moment(state, word) - moments[key]))

    tdm = density_matrix(state, post_select=False)
    rho_ref = oracle.fock_block(ref, levels=3)
    rho_ref /= np.trace(rho_ref).real  # same qutrit-block normalization
    rho_err = float(np.max(np.abs(tdm.rho - rho_ref)))
    return _table("max_moment_error,max_rho_error", [moment_err], [rho_err]), 0


SUBCOMMANDS = {
    "sweep": run_sweep,
    "spectrum": _run_spectrum,
    "time-delay": _run_time_delay,
    "broadband": _run_broadband,
    "entangle": _run_entangle,
    "calibrate": _run_calibrate,
    "oracle-check": _run_oracle_check,
}


_FLAGS = {"--" + key.replace("_", "-"): key for key in CONFIG_KEYS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcearray",
        description="Photon statistics of parametrically modulated waveguide arrays",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="path to a key=value config file")
    for flag, key in _FLAGS.items():
        parser.add_argument(flag, dest=key)
    return parser


# Built once at import, not in main: a parser built per call of main cut the
# entangle-thermal bench's points_per_s by about a fifth (800 against 1100).
_PARSER = _build_parser()


def _write(path: str, payload: str, mode: str) -> None:
    """Write ``payload`` to the ``out`` file; any OSError is a ConfigError."""
    try:
        with open(path, mode, encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write out={path!r}: {exc.strerror}") from None


def main(argv=None) -> int:
    # argparse takes a bare word that begins with one "-" (-1e-26, -inf,
    # -5,25) for an option, so a key flag and such a word after it go in as
    # one --key=value word; -h and --options stay options
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        single_dash = word.startswith("-") and not word.startswith("--")
        if words and words[-1] in _FLAGS and single_dash and word != "-h":
            words[-1] += "=" + word
        else:
            words.append(word)
    args = _PARSER.parse_args(words)
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    try:
        text = ""
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
        config = parse_config(text, overrides, args.command)
        if config.out:
            # Append mode finds an unwritable out before the compute and keeps
            # an existing file; a new one goes, so a failed run leaves none.
            existed = os.path.exists(config.out)
            _write(config.out, "", "a")
            if not existed:
                os.remove(config.out)
        lines, failures = SUBCOMMANDS[args.command](config)
        payload = "\n".join(lines) + "\n"
        if config.out:
            _write(config.out, payload, "w")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DceArrayError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not config.out:
        try:
            sys.stdout.write(payload)
        except BrokenPipeError:
            pass
    return 2 if failures else 0


# Frozen last: the CLI's modules live until the process ends, and frozen objects
# sit in the permanent generation, which no collection walks, the one at exit too.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
