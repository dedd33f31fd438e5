"""Command-line front end: level tables, states, lines, scans, algebra checks.

The six commands read their options from one table (`_COMMANDS`) with a
parser of the standard library alone.  A flag takes its value as
``--flag value`` or ``--flag=value``; ``--help`` after the tool name or
after a command prints help made from the table to stdout.

Output is byte-deterministic for a fixed invocation: floats are printed
with 15 significant digits and a lowercase exponent, column orders are
fixed, and rows are emitted in the documented sort orders.  Data goes
to stdout (or --output); diagnostics go to stderr.  Exit status is 0 on
success, 1 on a validation error (printed as "Error: <message>") and 2
on a computational error (printed as "error: <message>"), including a
failed `verify` run, so it can gate CI.  A stdout closed by its reader
ends the command quietly with status 1; any other failed write to
stdout prints "Error: Could not write to stdout: <reason>" and exits 1,
and a failed --output write "Error: Could not write file ...".
"""

from __future__ import annotations

import gc
import io
import math
import os
import re
import sys
from itertools import chain, compress, repeat
from operator import is_not, ne, sub
from typing import Any, Callable, Iterable, Sequence

from .irreps import build_irrep, build_irreps, casimir_identity_report, verify_commutators
from .lines import ScanRow, series_table, splitting_scan
from .qnum import DeformationParameter, QNumberOverflowError, SpinLabel
from .spectrum import (
    RYDBERG_EV,
    RYDBERG_PER_CM,
    NonPositiveDenominatorError,
    _MODES,
    enumerate_states,
    level_table,
)

__all__ = ["main"]

# Each --units choice: the text of the unit column and the factor from
# Rydberg.  The library works in Rydberg; output is converted here only.
_UNIT_FLAGS = {
    "rydberg": ("rydberg", 1.0),
    "ev": ("ev", RYDBERG_EV),
    "wavenumber": ("wavenumber_per_cm", RYDBERG_PER_CM),
}

# Column renames applied in table format; twice-integer columns are
# shown as half-integer fractions there ("3" becomes "3/2").
_FRACTION_COLUMNS = {
    "twice_j": "j",
    "twice_m": "m",
    "twice_p": "p",
    "twice_abs_m": "|m|",
    "upper_twice_j": "upper_j",
    "upper_twice_abs_m": "upper_|m|",
    "lower_twice_j": "lower_j",
    "lower_twice_abs_m": "lower_|m|",
}


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from ``start`` to ``stop``.

    Bit for bit the usual array ``linspace``, by the same float64
    operations in its order: ``i*step + start``, or ``i/div*delta + start``
    where the step is 0 (a zero range or an underflowing step), then the
    last point set to ``stop``.  One point is ``0*delta + start``.
    """
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


class UsageError(Exception):
    """A refused invocation: `main` prints "Error: <message>" and returns 1."""


class VerificationFailedError(Exception):
    """At least one relation in a `verify` run exceeded its tolerance."""


def _half(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _json_value(value: str | int | float) -> str:
    """The JSON text of a config value or of a string cell."""
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return f"{value:.15g}" if isinstance(value, float) else str(value)


# `_render` takes the documents of the five table commands: 3-8 columns,
# each all int, all str, all bool, or float with None; twice-integer
# columns all int; config values str, int or float.  TestRenderContract
# in tests/test_cli.py holds every command to this.  A cell's text is
# "%.15g" for a float, "" for None (null in JSON), "false" or "true" for
# a bool, and an int or a string as itself, a string quoted as
# csv.writer or the JSON escape quotes it.  Rows are built a column at a
# time, which skips a per-cell type dispatch: `_texts` gives each cell's
# text for one column, and each row is one str.join of its cells' texts
# (a `%` row template costs about three times as much per row, even with
# every slot a string).  An int, bool or str column formats each
# distinct value once, through a dict.  A float/None column is cut into
# runs of equal adjacent cells: sorted tables repeat most of their
# energies (at large j the |m| splitting falls below a double's spacing)
# and a scan repeats s and q on every |m| row, so where runs average two
# cells or more each run is formatted once and its text repeated.  JSON
# folds each '"key": ' into its column's texts.  CSV and JSON build
# _CHUNK_ROWS rows at a time, which keeps the transposed columns of a
# long table from sitting in memory at once; the table takes each
# column whole, for its width, and pads each distinct text once.
_CHUNK_ROWS = 2048

# Characters that can make csv.writer quote a field; a string without
# them is its own field text.
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """The text csv.writer gives ``text`` as one field of a longer record."""
    if not _CSV_SPECIAL(text):
        return text
    # csv.writer has the last word: with "\n" line ends, Python 3.11
    # leaves a lone "\r" unquoted.  Imported here, its one use, so that
    # a command that quotes nothing does not load it.
    import csv

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def _texts(values: tuple, fmt: str, prefix: str = "") -> Iterable[str]:
    """The text of each cell of one column in ``fmt``, led by ``prefix``."""
    if not values or values[0] is None or type(values[0]) is float:
        none = prefix + ("null" if fmt == "json" else "")
        differ = list(map(ne, values[1:], values))
        if 2 * (differ.count(True) + 1) > len(values):
            return [none if v is None else f"{prefix}{v:.15g}" for v in values]
        # Equal floats print alike, but for 0.0 and -0.0: a column that
        # holds a zero takes its runs by identity.  By value, each nan is
        # a run of its own.
        if 0.0 in values:
            differ = list(map(is_not, values[1:], values))
        starts = [0, *compress(range(1, len(values)), differ)]
        texts = [none if v is None else f"{prefix}{v:.15g}"
                 for v in map(values.__getitem__, starts)]
        lengths = map(sub, [*starts[1:], len(values)], starts)
        return chain.from_iterable(map(repeat, texts, lengths))
    if type(values[0]) is str:
        cell = {"csv": _csv_field, "json": _json_value}.get(fmt, str)
    else:
        cell = ("false", "true").__getitem__ if type(values[0]) is bool else str
    text = {v: prefix + cell(v) for v in set(values)}
    return map(text.__getitem__, values)


def _row_lines(fmt: str, prefixes: Sequence[str], rows: Sequence[tuple]) -> list[str]:
    """Each row's text, its cells joined on "," (CSV) or ", " (JSON)."""
    join = ("," if fmt == "csv" else ", ").join
    lines: list[str] = []
    for start in range(0, len(rows), _CHUNK_ROWS):
        cols = zip(*rows[start:start + _CHUNK_ROWS])
        # A list: `*`-unpacking a map here left one tuple per chunk on the
        # interpreter's free list, allocated among the row strings, which
        # then kept freed rows resident (bulk-tables peak RSS +4 MiB).
        texts = [_texts(col, fmt, prefix) for col, prefix in zip(cols, prefixes)]
        lines.extend(map(join, zip(*texts)))
    return lines


def _emit_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    lines = _row_lines("csv", [""] * len(columns), rows)
    lines.insert(0, ",".join(map(_csv_field, columns)))
    lines.append("")
    return "\n".join(lines)


def _emit_json(config: dict[str, Any], columns: Sequence[str], rows: Sequence[tuple]) -> str:
    config_body = ", ".join(f'"{k}": {_json_value(v)}' for k, v in config.items())
    head = "{\n" f'  "config": {{{config_body}}},\n' '  "rows": [\n'
    tail = "\n  ]\n}\n"
    if not rows:
        return head + tail
    keys = [f'"{c}": ' for c in columns]
    keys[0] = "    {" + keys[0]
    # Gluing head and tail onto the end lines lets one join build the
    # document instead of copying the joined rows twice more.
    lines = _row_lines("json", keys, rows)
    lines[0] = head + lines[0]
    lines[-1] += "}" + tail
    return "},\n".join(lines)


def _emit_table(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    names = [_FRACTION_COLUMNS.get(c, c) for c in columns]
    cols = zip(*rows) if rows else [()] * len(columns)
    rendered = [
        # Twice-integers as halves: 3 becomes "3/2".
        list(map({v: _half(v) for v in set(col)}.__getitem__, col))
        if c in _FRACTION_COLUMNS else list(_texts(col, "table"))
        for c, col in zip(columns, cols)
    ]
    widths = [max(len(n), max(map(len, col)) if col else 0) for n, col in zip(names, rendered)]
    out = ["  ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    # Every column but the last is padded to its width; rstrip then takes
    # off what padding would have ended the row.
    padded = [map({t: t.ljust(w) for t in set(col)}.__getitem__, col)
              for col, w in zip(rendered[:-1], widths)]
    out.extend(map(str.rstrip, map("  ".join, zip(*padded, rendered[-1]))))
    return "\n".join(out) + "\n"


def _render(fmt: str, config: dict[str, Any], columns: Sequence[str], rows: Sequence[tuple]) -> str:
    if fmt == "csv":
        return _emit_csv(columns, rows)
    if fmt == "json":
        return _emit_json(config, columns, rows)
    return _emit_table(columns, rows)


def _write(document: str, output: str | None) -> None:
    """Write ``document`` to stdout (flushed, so a failure shows here) or to --output."""
    if output is None:
        sys.stdout.write(document)
        sys.stdout.flush()
        return
    try:
        handle = open(output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"Could not open file {output!r}: {exc.strerror}") from None
    try:
        with handle:
            handle.write(document)
    except OSError as exc:
        raise UsageError(f"Could not write file {output!r}: {exc.strerror}") from None


# The most rows (or, for verify and dump-irrep, matrix entries) one command
# may build.  Sizes follow from the options alone, so a command above it is
# refused before it builds anything: at about 0.45 KiB per levels row at
# peak, 2,000,000 rows take near 1 GiB.  The largest sizes in use lie below
# it: 266,256 levels rows (--j-max 1030), 1,008,910 ladder entries (verify
# --j-max 1419) and 81,000-row scans.
_MAX_SIZE = 2_000_000


def _level_rows(twice_j_max: int, mode: str) -> int:
    """Rows of the level table up to 2j_max: one per (j, |m|), or one per j undeformed."""
    if mode == "undeformed":
        return twice_j_max + 1
    # Spin 2j has floor(2j/2) + 1 values of |m|.
    return twice_j_max + 1 + (twice_j_max // 2) * ((twice_j_max + 1) // 2)


def _state_count(twice_j: int, mode: str) -> int:
    """States at spin j: 4j+1 (integer j) or 4j+2 deformed, (2j+1)^2 undeformed."""
    if mode == "undeformed":
        return (twice_j + 1) ** 2
    return 2 * twice_j + 1 + twice_j % 2


def _ladder_entries(twice_j_max: int) -> int:
    """Basis states of every spin up to 2j_max, sum of 2j+1: what verify builds."""
    return (twice_j_max + 1) * (twice_j_max + 2) // 2


def _check_size(size: int, unit: str, what: str) -> None:
    """Refuse a command whose size, from its options alone, is above _MAX_SIZE."""
    if size > _MAX_SIZE:
        raise UsageError(f"Invalid value for {what} would build {size} {unit}; "
                         f"at most {_MAX_SIZE}.")


def _resolve_deformation(q: float | None, s: float | None) -> DeformationParameter:
    if q is not None and s is not None:
        raise UsageError("--q and --s are mutually exclusive")
    try:
        if s is not None:
            return DeformationParameter.from_s(s)
        return DeformationParameter(1.0 if q is None else q)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def levels(q, s, twice_j_max, mode, units, fmt, output) -> None:
    """Bound-level table for all spins up to --j-max."""
    _check_size(_level_rows(twice_j_max, mode), "rows", f"'--j-max': {twice_j_max}")
    d = _resolve_deformation(q, s)
    unit, factor = _UNIT_FLAGS[units]
    table = level_table(SpinLabel(twice_j_max), d, mode)
    columns = ["twice_j", "twice_abs_m", "n", "energy", "unit", "multiplicity"]
    rows = [(j.twice_j, twice_abs_m, n, e * factor, unit, multiplicity)
            for j, twice_abs_m, e, multiplicity, n in table]
    config = {"command": "levels", "q": d.q, "s": d.s, "twice_j_max": twice_j_max,
              "mode": mode, "units": unit}
    _write(_render(fmt, config, columns, rows), output)


def states(twice_j, mode, fmt, output) -> None:
    """Enumerate the coupled (m, p) states at one spin."""
    _check_size(_state_count(twice_j, mode), "states", f"'--j': {twice_j}")
    state_list = enumerate_states(SpinLabel(twice_j), mode)
    columns = ["twice_j", "twice_m", "twice_p"]
    rows = [(st.j.twice_j, st.twice_m, st.twice_p) for st in state_list]
    config = {"command": "states", "twice_j": twice_j, "mode": mode, "count": len(rows)}
    _write(_render(fmt, config, columns, rows), output)


def lines(q, s, twice_j_max, lower_twice_j, lower_twice_abs_m, units, fmt, output) -> None:
    """Series of lines from all levels above a lower level down to it."""
    _check_size(_level_rows(twice_j_max, "deformed"), "level rows", f"'--j-max': {twice_j_max}")
    d = _resolve_deformation(q, s)
    unit, factor = _UNIT_FLAGS[units]
    try:
        table = series_table(SpinLabel(lower_twice_j), lower_twice_abs_m,
                             SpinLabel(twice_j_max), d)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    columns = ["upper_twice_j", "upper_twice_abs_m", "lower_twice_j", "lower_twice_abs_m",
               "delta_energy", "unit", "wavenumber_per_cm", "wavelength_nm"]
    rows = [
        (upper_j.twice_j, upper_tam, lower_j.twice_j, lower_tam, delta * factor, unit,
         wavenumber, wavelength)
        for (upper_j, upper_tam), (lower_j, lower_tam), delta, wavenumber, wavelength in table
    ]
    config = {"command": "lines", "q": d.q, "s": d.s, "twice_j_max": twice_j_max,
              "lower_twice_j": lower_twice_j, "lower_twice_abs_m": lower_twice_abs_m,
              "units": unit}
    _write(_render(fmt, config, columns, rows), output)


def scan(twice_j, s_values_text, s_min, s_max, s_count, fmt, output) -> None:
    """Splitting of each |m| sublevel away from -1/n^2 versus s = ln q.

    Rows are always in Rydberg (columns energy_ry, deviation_ry);
    unphysical points are flagged instead of aborting the scan.
    """
    if s_values_text is not None:
        try:
            s_values = [float(tok) for tok in s_values_text.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--s-values is not a comma-separated float list: "
                             f"{s_values_text!r}") from None
        if not s_values:
            raise UsageError("--s-values contained no values")
        for value in s_values:
            if not math.isfinite(value):
                raise UsageError(f"--s-values must be finite, got {value!r}")
        s_count = len(s_values)
        count = f"'--j' and '--s-values': {twice_j} and {s_count} values"
    else:
        for name, value in (("--s-min", s_min), ("--s-max", s_max)):
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(s_max - s_min):
            # The grid would hold inf - inf and 0 * inf points (nan).
            raise UsageError(f"--s-min {s_min!r} and --s-max {s_max!r} are too far "
                             f"apart: their difference overflows")
        count = f"'--j' and '--s-count': {twice_j} and {s_count}"
    _check_size(s_count * (twice_j // 2 + 1), "rows", count)
    if s_values_text is None:
        s_values = _linspace(s_min, s_max, s_count)
    # The ScanRow fields are the columns, so rows render as they come.
    rows = splitting_scan(SpinLabel(twice_j), s_values)
    columns = ScanRow._fields
    config = {"command": "scan", "twice_j": twice_j, "s_count": len(s_values)}
    _write(_render(fmt, config, columns, rows), output)


def verify(q, s, twice_j_max, tolerance, fmt, output) -> None:
    """Verify commutation relations and the Casimir identity numerically.

    Exits with status 2 if any relation exceeds the tolerance, so this
    command can gate CI.
    """
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        # An infinite tolerance would pass every relation.
        raise UsageError(f"--tolerance must be finite and positive, got {tolerance!r}")
    _check_size(_ladder_entries(twice_j_max), "ladder entries", f"'--j-max': {twice_j_max}")
    d = _resolve_deformation(q, s)
    columns = ["twice_j", "q", "relation", "max_deviation", "tolerance", "passed"]
    rows = []
    failed = 0
    for r in build_irreps(SpinLabel(twice_j_max), d):
        reports = verify_commutators(r, tolerance)
        reports.append(casimir_identity_report(r, tolerance))
        for rep in reports:
            failed += not rep.passed
            rows.append((r.j.twice_j, d.q, rep.relation_name, rep.max_abs_deviation,
                         rep.tolerance, rep.passed))
    config = {"command": "verify", "q": d.q, "s": d.s, "twice_j_max": twice_j_max,
              "tolerance": tolerance}
    _write(_render(fmt, config, columns, rows), output)
    if failed:
        raise VerificationFailedError(
            f"{failed} of {len(rows)} relations exceeded tolerance {tolerance:g}"
        )


def dump_irrep(q, s, twice_j, operator, output) -> None:
    """Dump one generator matrix as JSON ([re, im] pairs, row-major)."""
    _check_size((twice_j + 1) ** 2, "matrix entries", f"'--j': {twice_j}")
    d = _resolve_deformation(q, s)
    r = build_irrep(SpinLabel(twice_j), d)
    # The nonzeros by (row, column): Iz's weights, or the ladder above
    # (I+) or below (I-) the diagonal.  I- = (I+)^dagger, so each of its
    # entries has imaginary part -0, the conjugate of +0.
    if operator == "iz":
        nonzeros = {(k, k): tm / 2.0 for k, tm in enumerate(r.j.twice_m_values())}
    elif operator == "iplus":
        nonzeros = {(k - 1, k): u for k, u in enumerate(r.ladder, 1)}
    else:
        nonzeros = {(k, k - 1): u for k, u in enumerate(r.ladder, 1)}
    imag = "-0" if operator == "iminus" else "0"
    entries = ", ".join(
        f"[{nonzeros.get((row, col), 0.0):.15g}, {imag}]"
        for row in range(r.dim) for col in range(r.dim)
    )
    document = (
        "{"
        f'"j_times_2": {twice_j}, '
        f'"q": {d.q:.15g}, '
        f'"operator": "{operator}", '
        f'"dim": {r.dim}, '
        f'"entries": [{entries}]'
        "}\n"
    )
    _write(document, output)


# -- the option table and its parser ------------------------------------
#
# Each command maps to its function and its options; each option maps a
# flag to (keyword, converter, default, help).  A converter is a tuple of
# choices or a function from the flag's text to its value that raises
# ValueError with the reason the text is refused.  The default is not
# converted; _REQUIRED marks an option without one.

_REQUIRED = object()


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None


def _at_least(minimum: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer range.") from None
        if value < minimum:
            raise ValueError(f"{value} is not in the range x>={minimum}.")
        if value > sys.maxsize:
            # Beyond an index: refused before anything is sized by it.
            raise ValueError(f"{value} is not in the range {minimum}<=x<={sys.maxsize}.")
        return value
    return convert


def _file(text: str) -> str:
    """An --output path, refused before the command runs if it is a directory."""
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    return text


_DEFORMATION = {
    "--q": ("q", _float, None, "Deformation q > 0 (default 1, the undeformed case)."),
    "--s": ("s", _float, None, "Deformation strength s = ln q; excludes --q."),
}
_MODE = {"--mode": ("mode", _MODES, "deformed", "")}
_UNITS = {"--units": ("units", tuple(sorted(_UNIT_FLAGS)), "rydberg", "Energy output unit.")}
_FORMAT = {"--format": ("fmt", ("csv", "json", "table"), "csv", "Output document format.")}
_OUTPUT = {"--output": ("output", _file, None, "Write to this file instead of stdout.")}

_COMMANDS = {
    "levels": (levels, {
        **_DEFORMATION,
        "--j-max": ("twice_j_max", _at_least(0), 8, "Largest twice-j to include."),
        **_MODE, **_UNITS, **_FORMAT, **_OUTPUT,
    }),
    "states": (states, {
        "--j": ("twice_j", _at_least(0), _REQUIRED, "Spin as twice-j (3 means j = 3/2)."),
        **_MODE, **_FORMAT, **_OUTPUT,
    }),
    "lines": (lines, {
        **_DEFORMATION,
        "--j-max": ("twice_j_max", _at_least(0), 8, "Largest twice-j for upper levels."),
        "--lower-j": ("lower_twice_j", _at_least(0), 0, "Lower level spin as twice-j."),
        "--lower-m": ("lower_twice_abs_m", _at_least(0), 0,
                      "Lower level |m| as twice the value."),
        **_UNITS, **_FORMAT, **_OUTPUT,
    }),
    "scan": (scan, {
        "--j": ("twice_j", _at_least(0), _REQUIRED, "Spin as twice-j."),
        "--s-values": ("s_values_text", str, None,
                       "Comma-separated explicit s grid; overrides --s-min/--s-max/--s-count."),
        "--s-min": ("s_min", _float, 0.0, ""),
        "--s-max": ("s_max", _float, 0.5, ""),
        "--s-count": ("s_count", _at_least(1), 11, ""),
        **_FORMAT, **_OUTPUT,
    }),
    "verify": (verify, {
        **_DEFORMATION,
        "--j-max": ("twice_j_max", _at_least(0), 8, "Check every twice-j up to this."),
        "--tolerance": ("tolerance", _float, 1e-11,
                        "Maximum allowed (scale-normalized) deviation."),
        **_FORMAT, **_OUTPUT,
    }),
    "dump-irrep": (dump_irrep, {
        **_DEFORMATION,
        "--j": ("twice_j", _at_least(0), _REQUIRED, "Spin as twice-j."),
        "--operator": ("operator", ("iz", "iplus", "iminus"), _REQUIRED, ""),
        **_OUTPUT,
    }),
}

_TOOL_HELP = """\
Deformed hydrogen bound-state spectrum toolkit.

Half-integer spins are passed in exact twice-j form: --j-max 3
means j = 3/2.  Pretty tables render them back as fractions.
Run "qhydrogen COMMAND --help" for the options of one command."""


def _help(command: str | None) -> str:
    """The --help text of the tool (``None``) or of one command."""
    if command is None:
        names = {name: fn.__doc__.split("\n", 1)[0] for name, (fn, _) in _COMMANDS.items()}
        usage, doc, heading = "COMMAND [OPTIONS]", _TOOL_HELP, "Commands"
    else:
        fn, options = _COMMANDS[command]
        names = {}
        for flag, (_, convert, default, text) in options.items():
            if isinstance(convert, tuple):
                metavar = "[" + "|".join(convert) + "]"
            else:
                metavar = {_float: "FLOAT", str: "TEXT", _file: "FILE"}.get(convert, "INTEGER")
            if default is _REQUIRED:
                text += "  [required]"
            elif default is not None:
                text += f"  [default: {default}]"
            names[f"{flag} {metavar}"] = text.strip()
        names["--help"] = "Show this message and exit."
        usage, heading = f"{command} [OPTIONS]", "Options"
        doc = "\n".join(line.strip() for line in fn.__doc__.splitlines()).strip()
    width = max(map(len, names))
    listing = "".join(f"\n  {name.ljust(width)}  {text}".rstrip() for name, text in names.items())
    return f"Usage: qhydrogen {usage}\n\n{doc}\n\n{heading}:{listing}\n"


def _parse(argv: Sequence[str]) -> tuple[Callable[..., None], dict[str, Any]] | None:
    """The command function and its keyword arguments for ``argv``.

    Returns None once --help has been printed.  A flag takes its value
    as ``--flag value`` or ``--flag=value``; the value is the next token
    as it is, even one that starts with "-", and the last of a repeated
    flag wins.  Values are converted in the order their flags first
    appear, then the defaults fill in.
    """
    if not argv:
        raise UsageError("Missing command.")
    name, *tokens = argv
    if name == "--help":
        _write(_help(None), None)
        return None
    if name not in _COMMANDS:
        raise UsageError(f"No such {'option' if name[:1] == '-' else 'command'} {name!r}.")
    fn, options = _COMMANDS[name]
    given: dict[str, str] = {}
    extra: list[str] = []
    wants_help = False
    rest = iter(tokens)
    for token in rest:
        if token == "--":
            extra.extend(rest)
        elif token[:1] != "-" or token == "-":
            extra.append(token)
        else:
            flag, eq, value = token.partition("=")
            if flag == "--help":
                if eq:
                    raise UsageError("Option '--help' does not take a value.")
                wants_help = True
            elif flag not in options:
                raise UsageError(f"No such option {flag!r}.")
            elif eq:
                given[flag] = value
            else:
                value = next(rest, None)
                if value is None:
                    raise UsageError(f"Option {flag!r} requires an argument.")
                given[flag] = value
    if wants_help:
        _write(_help(name), None)
        return None
    kwargs = {}
    for flag, text in given.items():
        dest, convert = options[flag][:2]
        try:
            if isinstance(convert, tuple):
                if text not in convert:
                    raise ValueError(f"{text!r} is not one of {', '.join(map(repr, convert))}.")
                kwargs[dest] = text
            else:
                kwargs[dest] = convert(text)
        except ValueError as exc:
            raise UsageError(f"Invalid value for {flag!r}: {exc}") from None
    for flag, (dest, convert, default, _) in options.items():
        if flag in given:
            continue
        if default is _REQUIRED:
            message = f"Missing option {flag!r}."
            if isinstance(convert, tuple):
                message += " Choose from:\n\t" + ",\n\t".join(convert)
            raise UsageError(message)
        kwargs[dest] = default
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    return fn, kwargs


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (0, 1 or 2, as documented).

    ``argv`` defaults to ``sys.argv[1:]``.  The command runs with the
    cyclic garbage collector paused.  A table command keeps 10^4-10^5
    row tuples alive, which the collector would scan again and again;
    the rows form no reference cycles, so reference counting alone
    frees them.  The collector is turned back on at every exit, and
    only if it was on when ``main`` was called.

    If writing to stdout fails, ``main`` returns 1.  It prints nothing
    when the reader closed stdout (``qhydrogen levels ... | head``) and
    "Error: Could not write to stdout: <reason>" otherwise (``> /dev/full``).
    Either way stdout is pointed at the null device first, so the flush
    at interpreter exit cannot fail again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is not None:
            command, kwargs = parsed
            command(**kwargs)
    except KeyboardInterrupt:
        print("\naborted", file=sys.stderr)
        return 1
    except OSError as exc:
        # Only a stdout write gets here: _write turns an --output failure
        # into a UsageError.
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"Error: Could not write to stdout: {exc.strerror}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except (NonPositiveDenominatorError, QNumberOverflowError, VerificationFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()
    return 0
