"""Command-line driver: key=value configs, parameter sweeps, CSV output.

Configs are UTF-8 ``key=value`` lines, a leading byte-order mark skipped,
optionally layered with command-line overrides that mirror the keys
(``--theta-start`` for ``theta_start`` and so on).  Every subcommand emits
CSV with '#'-prefixed header and status lines, 17 significant digits, and
deterministic row order, so reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

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
    DceArrayError,
    MissingRequired,
    NonFinite,
    RangeError,
    RingTooSmall,
    UnknownKey,
    with_errors,
)
from .lattice import ArrayTopology, LaplacianSpectrum, analytic_spectrum
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
# indices), over a batch of points; a value holds each failed point's error in
# its cell (the state's first), and an ``n`` cell holds none.  Values call the
# library by this module's names, so a wrapper bound over one sees each call.
_OBSERVABLES = {
    "n": (1, _correlations, lambda corr, i: corr.intensities[..., i]),
    "g2": (2, _correlations, lambda corr, i, j: with_errors(corr.g2(i, j), corr.errors)),
    "cs_violation": (
        2, _correlations, lambda corr, i, j: cauchy_schwarz_violation(corr, i, j)
    ),
    "entropy": (0, _qutrit_state, lambda tdm: von_neumann_entropy(tdm)),
    "f_noon": (0, _qutrit_state, lambda tdm: noon_fidelity(tdm)),
    "f_eq10": (0, _qutrit_state, lambda tdm: maximally_entangled_fidelity(tdm)),
}
_TOKEN_RE = re.compile(r"([a-z][a-z0-9_]*?)((?:_(?:0|[1-9]\d*))*)")
_QUTRIT_OBS = tuple(k for k, v in _OBSERVABLES.items() if v[1] is _qutrit_state)


@dataclass(frozen=True)
class RunConfig:
    """Validated sweep configuration."""

    topology: ArrayTopology
    drive: DriveParams        # theta is the grid, or the one angle the command reads
    target_occupancy: float | None  # calibrates drive.da0 when set
    line: LineParams
    temperatures: tuple       # mK, as given; runners pass t * 1e-3 K to the library
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
    """Comma-separated millikelvin, as given."""
    return tuple(_NON_NEGATIVE(key, tok.strip()) for tok in raw.split(","))


def _tokens(key: str, raw: str) -> tuple:
    """Comma-separated observable tokens; their indices are checked against n."""
    tokens = tuple(tok.strip() for tok in raw.split(","))
    for tok in tokens:
        if _observable(tok) is None:
            raise RangeError(f"unrecognized observable token {tok!r}")
    return tokens


def _out(key: str, raw: str) -> str:
    if not raw or os.path.isdir(raw) or not os.path.isdir(os.path.dirname(raw) or "."):
        raise RangeError(f"{key}={raw!r} is not a file in an existing directory")
    return raw


# One row per config key: (default text or None, parser).  A parser turns the
# key's text into its value or raises the RangeError of the key's range rule;
# a default goes through its row's parser as given text does.  The default
# observables are the subcommand's, in its _COMMANDS row.
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
    "temperature_mk": ("0", _temperatures),
    "observables": (None, _tokens),
    "out": (None, _out),
}


def _parse_pairs(text: str) -> dict:
    pairs, set_on = {}, {}
    for lineno, stripped in enumerate(map(str.strip, text.splitlines()), start=1):
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = map(str.strip, stripped.partition("="))
        if key not in CONFIG_KEYS:
            raise UnknownKey(f"unknown configuration key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {set_on[key]}")
        pairs[key], set_on[key] = value, lineno
    return pairs


def parse_config(
    text: str, overrides: dict | None = None, command: str = "sweep"
) -> RunConfig:
    """Parse and validate a key=value config, with optional layered overrides.

    Each key's row parses and range-checks its value; the rules here are
    those between keys.  ``command`` names the subcommand, whose row states
    what it reads and its default observables; a key the command would
    ignore, or a config it cannot run, is an error here rather than at run
    time.  The run's drive is built here once.
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

    reads = _COMMANDS[command]
    n = values["n"]
    if n < reads.min_n:
        raise RangeError(f"{command} needs n >= {reads.min_n}, got n = {n}")
    da0, target = values.get("da0_joule"), values.get("target_occupancy")
    if da0 is not None and target is not None:
        raise RangeError("da0_joule and target_occupancy are mutually exclusive")
    if da0 is None and target is None:
        raise MissingRequired("one of da0_joule or target_occupancy is required")

    if "theta_rad" in given:
        if given.keys() & {"theta_start", "theta_end", "theta_steps"}:
            raise RangeError("theta_rad excludes theta_start/theta_end/theta_steps")
        thetas = np.array([values["theta_rad"]])
    else:
        steps = values["theta_steps"]
        try:  # a size numpy cannot index is the key's error; one it cannot hold, MemoryError
            thetas = np.linspace(values["theta_start"], values["theta_end"], steps)
        except ValueError as exc:
            raise RangeError(f"theta_steps = {steps} is too large: {exc}") from None
    try:  # the n x n Laplacian can exist, checked before its edge list is built
        np.empty((n, n))
    except ValueError as exc:
        raise RangeError(f"n = {n} is too large for an n x n array: {exc}") from None
    try:
        topology = values["topology"](n)
    except RingTooSmall as exc:  # a rule of the n key
        raise RangeError(str(exc)) from None

    temps = values["temperature_mk"]
    if not reads.grid and len(thetas) > 1:
        raise RangeError(f"{command} reads one theta, got a grid of {len(thetas)}")
    if reads.temperatures == 0 and temps != (0.0,):
        raise RangeError(f"{command} reads no temperature; temperature_mk must be 0")
    if not reads.observables and "observables" in given:
        raise RangeError(f"{command} reads no observables")
    if reads.temperatures == 1 and len(temps) > 1:
        raise RangeError(f"{command} reads one temperature, got {len(temps)}")
    if command == "oracle-check" and n != 2:
        raise RangeError("oracle-check covers n=2 only")
    if command == "calibrate" and target is None:
        raise MissingRequired("calibrate requires target_occupancy")

    observables = values.get("observables", reads.observables)
    for tok in observables:
        if not all(0 <= i < n for i in _observable(tok)[2]):
            raise RangeError(f"observable {tok!r} indexes outside 1..{n}")
    qutrit = any(t in _QUTRIT_OBS for t in observables)
    if command == "entangle" and not qutrit:
        raise RangeError("entangle observables need one of " + ", ".join(_QUTRIT_OBS))
    if n != 2 and qutrit:
        raise RangeError(f"{', '.join(_QUTRIT_OBS)} need n = 2, got n = {n}")

    a0 = values["a0_joule"]
    if target is not None and a0 * 1e-3 == 0.0:
        raise RangeError(f"a0_joule = {a0} leaves the calibration seed a0 * 1e-3 at 0")
    drive = DriveParams(  # a calibration seeds da0 at a0 * 1e-3
        a0=a0, da0=a0 * 1e-3 if da0 is None else da0, phi=values["phi_rad"],
        theta=thetas if reads.grid else thetas[0], omega_d=values["omega_d_rad_s"],
    )
    return RunConfig(
        topology=topology,
        drive=drive,
        target_occupancy=target,
        line=LineParams(z0=values["z0_ohm"]),
        temperatures=temps,
        observables=observables,
        out=values.get("out"),
    )


def _fmt(value) -> str:
    return "%.17g" % value


@lru_cache(maxsize=2)
def _spectrum(topology: ArrayTopology) -> LaplacianSpectrum:
    """The array's spectrum, formed once per process for the last two arrays.

    Every CLI array is an open chain or a ring, and each takes its closed
    form, so the CLI solves no eigenproblem; a ring's fixes the cosine/sine
    modes of each degenerate pair.  Later runs over a kept array share its
    read-only arrays, so they write the same bytes; the memo holds at most
    two spectra of (n^2 + n) floats.
    """
    spectrum = analytic_spectrum(topology)
    spectrum.lambdas.flags.writeable = spectrum.modes.flags.writeable = False
    return spectrum


def _prepare(config: RunConfig) -> tuple:
    """The preamble of every subcommand: (spectrum, drive, modes), once.

    The drive is the config's, its da0 calibrated over its theta when the
    config sets a target occupancy.
    """
    spectrum = _spectrum(config.topology)
    if config.target_occupancy is None:
        return spectrum, config.drive, mode_response(config.drive, config.line, spectrum)
    return spectrum, *calibrate_da0_over_grid(
        config.drive, config.line, spectrum, config.target_occupancy
    )


def _finite(values, what: str) -> None:
    """NonFinite if one of ``values`` is inf or nan."""
    if not np.isfinite(values).all():
        raise NonFinite(f"{what} is not finite; the drive is beyond double precision")


# Rows per formatted block, so a CSV's Python cells and text exist one block at
# a time.  64 to 4096 format a 100 000-theta sweep equally fast at half its old
# peak memory; more add to small grids' peak (1024: +0.23 MB), 64 saves 0.02 MB.
_BLOCK_ROWS = 256


def _csv(header: str, keys, batches) -> tuple:
    """A CSV's chunks and its failure count: (chunks, n_failures).

    Row k of a batch (lead, columns, failed) is ``keys`` cell k, ``lead`` and
    its ``columns`` cells.  Batches whose ``failed`` maps a point to its error
    make a grid: an ``error`` column ends each row, and a failed point's row
    holds its message there in place of the cells (``%.0s``).  Batches with
    ``failed`` None make a table, whose inf or nan cell fails the run
    (NonFinite) here.  ``chunks`` is an iterator, read once, that formats the
    header, blocks of at most _BLOCK_ROWS rows per batch and the status line
    as it is read.
    """
    maps = [failed for _, _, failed in batches if failed is not None]
    if not maps:
        values = [keys, *(column for _, columns, _ in batches for column in columns)]
        _finite(np.concatenate(values), f"a value of {header}")
    failures = sum(map(len, maps))
    points = len(keys) * len(batches)
    status = f"partial ({failures} of {points} points failed)" if failures else "ok"

    def chunks():
        yield "# " + header + (",error\n" if maps else "\n")
        text = [_fmt(key) for key in keys.tolist()]  # formatted once for all batches
        for lead, columns, failed in batches:
            ok = "%s" + lead + ",%.17g" * len(columns) + (",\n" if maps else "\n")
            bad = "%s" + lead + ",%.0s" * len(columns) + ","
            errors = sorted((failed or {}).items(), reverse=True)  # popped in row order
            for start in range(0, len(text), _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, len(text))
                rows = [ok] * (stop - start)
                while errors and errors[-1][0] < stop:
                    k, exc = errors.pop()
                    rows[k - start] = bad + f"{type(exc).__name__}: {exc}".replace("%", "%%") + "\n"
                cells = zip(text[start:stop], *(c[start:stop].tolist() for c in columns))
                yield "".join(rows) % tuple(chain.from_iterable(cells))
        yield f"# status: {status}\n"

    return chunks(), failures


def _table(header: str, *columns) -> tuple:
    """_csv of a float table keyed by its first column."""
    cells = np.column_stack(columns)
    return _csv(header, cells[:, 0], [("", cells.T[1:], None)])


def _point_values(specs, modes, spectrum, temperature):
    """Float columns, failures by point and qutrit state of the tokens ``specs``.

    A state is built when a token first reads it.  A point fails only through
    its tokens' cells, on the first error in token order: an error cell of a
    ``with_errors`` column, which is split into floats, or a value that is inf
    or nan (NonFinite).  An ``n_i`` cell holds no error.
    """
    states = {}
    columns = []
    failed = {}
    for state, value, indices in specs:
        if state not in states:
            states[state] = state(modes, spectrum, temperature)
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


def _sweep(config: RunConfig) -> tuple:
    """run_sweep's chunks and failures, and the qutrit state of the first point.

    The grid runs one batch over the theta array per temperature; the state
    is None when the first point failed or no token reads it.
    """
    spectrum, drive, modes = _prepare(config)
    specs = [_observable(token) for token in config.observables]
    batches = []
    first = None
    for temp in config.temperatures:
        columns, failed, tdm = _point_values(specs, modes, spectrum, temp * 1e-3)
        if not batches and tdm is not None and 0 not in failed:
            first = tdm.rho[0]
        batches.append((f",{_fmt(drive.phi)},{_fmt(temp)}", columns, failed))
    header = ",".join(("theta", "phi", "temperature_mk", *config.observables))
    return (*_csv(header, drive.theta, batches), first)


def run_sweep(config: RunConfig) -> tuple:
    """Evaluate the (theta, temperature) grid; returns (chunks, n_failures).

    Every point is computed before this returns; ``chunks`` is an iterator,
    read once, that formats the CSV as it is read (see _csv).  One row
    per grid point ordered by index, observables per the config; failed
    points leave their cells empty and carry the error message in the
    trailing error column.
    """
    chunks, failures, _ = _sweep(config)
    return chunks, failures


def _run_spectrum(config: RunConfig) -> tuple:
    """Photon flux spectral density of waveguide 1 over (0, omega_d), a batch per T."""
    spectrum, drive, modes = _prepare(config)
    omegas = omega_grid(drive.omega_d)
    temps = config.temperatures
    flux = [photon_flux_density(0, omegas, modes, spectrum, t * 1e-3) for t in temps]
    batches = [("," + _fmt(temp), [column], None) for temp, column in zip(temps, flux)]
    return _csv("omega_rad_s,temperature_mk,flux_1", omegas, batches)


def _run_time_delay(config: RunConfig) -> tuple:
    """Broadband G2_11 and G2_12 against the dimensionless delay omega_d*tau."""
    spectrum, drive, modes = _prepare(config)
    tau = TAU_GRID / drive.omega_d
    g11 = g2_broadband(0, 0, tau, modes, spectrum, config.line)
    g12 = g2_broadband(0, 1, tau, modes, spectrum, config.line)
    return _table("omega_d_tau,g2_broadband_1_1,g2_broadband_1_2", TAU_GRID, g11, g12)


def _run_broadband(config: RunConfig) -> tuple:
    """Normalized zero-delay broadband correlations, one batch over the theta grid."""
    spectrum, drive, modes = _prepare(config)
    specs = [(_correlations, g2_broadband_normalized, (0, j)) for j in (0, 1)]
    columns, failed, _ = _point_values(specs, modes, spectrum, 0.0)
    return _csv("theta,g2bb_1_1,g2bb_1_2", drive.theta, [("", columns, failed)])


def _run_entangle(config: RunConfig) -> tuple:
    """Entropy and fidelities over the grid; a run over one theta also dumps rho.

    One theta is ``theta_rad`` or a one-step grid.  The dump reuses the state
    of the first row; a failed point has none.
    """
    chunks, failures, rho = _sweep(config)
    if config.drive.theta.size == 1 and rho is not None:
        rows = "".join(",".join(map(_fmt, row)) + "\n" for row in rho.view(float).tolist())
        chunks = chain(chunks, ["# rho: rows |n1 n2>, re/im pairs for the 9 columns\n" + rows])
    return chunks, failures


def _run_calibrate(config: RunConfig) -> tuple:
    """Report the da0 that meets the target occupancy over the theta grid."""
    _, drive, _ = _prepare(config)
    return _table("da0_joule,target_occupancy", [drive.da0], [config.target_occupancy])


# oracle-check's one register: the top rung of acceptance criterion 6's ladder,
# the one that holds the corner of that criterion's box
_ORACLE_CUTOFF = 32


def _run_oracle_check(config: RunConfig) -> tuple:
    """Compare Wick-path moments and rho against the per-mode Fock oracle."""
    spectrum, drive, modes = _prepare(config)
    _finite(modes.eps, "a mode amplitude")  # the oracle's squeeze needs finite ones
    temp = config.temperatures[0] * 1e-3
    state = output_gaussian(modes, spectrum, temp)
    n_t = thermal_occupation(drive.omega_d / 2.0, temp)
    ref = oracle.build_state(
        modes.eps, spectrum.modes, n_thermal=n_t, cutoff=_ORACLE_CUTOFF, deficit_tol=1e-6
    )
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
    return _table("max_moment_error,max_rho_error", [moment_err], [rho_err])


# One row per subcommand: its runner and what parse_config lets it read, the
# least n, a theta grid (else one angle), how many temperatures (None: any)
# and its default observables (none: it takes no observables key).
_Command = namedtuple("_Command", "run min_n grid temperatures observables")
_COMMANDS = {
    "sweep": _Command(run_sweep, 1, True, None, ("n_1", "g2_1_1", "g2_1_2")),
    "spectrum": _Command(_run_spectrum, 1, False, None, ()),
    "time-delay": _Command(_run_time_delay, 2, False, 0, ()),  # reports guide 2
    "broadband": _Command(_run_broadband, 2, True, 0, ()),  # reports guide 2
    "entangle": _Command(_run_entangle, 2, True, None, _QUTRIT_OBS),  # n = 2 only
    "calibrate": _Command(_run_calibrate, 1, True, 0, ()),
    "oracle-check": _Command(_run_oracle_check, 2, False, 1, ()),  # n = 2 only
}
# Name -> runner: main calls through this map, whose values a tracer can rebind.
SUBCOMMANDS = {name: row.run for name, row in _COMMANDS.items()}


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


def _write(path: str, chunks, mode: str) -> None:
    """Write ``chunks`` to the ``out`` file; any OSError is a ConfigError.

    ``chunks`` is a runner's iterator of str, read once: each is formatted,
    written and freed before the next exists.
    """
    try:
        with open(path, mode, encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
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
    with warnings.catch_warnings():  # each warning as one line, without its source
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            text = ""
            if args.config:
                try:
                    with open(args.config, encoding="utf-8-sig") as fh:
                        text = fh.read()
                except (OSError, UnicodeDecodeError) as exc:
                    raise ConfigError(f"cannot read config file: {exc}") from None
            config = parse_config(text, overrides, args.command)
            if config.out:
                # Append mode finds an unwritable out before the compute and keeps
                # an existing file; a new one goes, so a failed run leaves none.
                existed = os.path.exists(config.out)
                _write(config.out, [], "a")
                if not existed:
                    os.remove(config.out)
            with np.errstate(all="ignore"):  # non-finite results fail their points or the run
                chunks, failures = SUBCOMMANDS[args.command](config)
            if config.out:
                _write(config.out, chunks, "w")
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        except DceArrayError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:  # a config too large for this machine, n above all
            print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
            return 1

    if not config.out:
        try:
            sys.stdout.writelines(chunks)
        except BrokenPipeError:
            pass
    return 2 if failures else 0


# Frozen last: the CLI's modules live until the process ends, and frozen objects
# sit in the permanent generation, which no collection walks, the one at exit too.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
