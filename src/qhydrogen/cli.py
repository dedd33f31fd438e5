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
from types import NoneType
from typing import Any, Callable, Iterable, Sequence

from .irreps import build_irrep, build_irreps, casimir_identity_report, verify_commutators
from .lines import ScanRow, series_table, splitting_scan
from .qnum import DeformationParameter, QNumberOverflowError, SpinLabel
from .spectrum import (
    RYDBERG_EV,
    RYDBERG_PER_CM,
    NonPositiveDenominatorError,
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


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _json_value(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _cell(value)


# Rows are formatted a column at a time, which skips the per-cell type
# dispatch.  `_slot` picks, from the set of value types in a column, one
# `%` slot and the values that fill it: plain floats, ints and strings
# that need no quoting fill it as they are, any other column is filled
# with its cell texts under "%s".  CSV and JSON turn each run of
# _CHUNK_ROWS rows into text with one row template of these slots; the
# table maps each slot over its fill, and renders twice-integer columns
# as fractions (`_fractions`).  `_cell` (with `_json_value` and `_half`)
# stays the definition of a cell's text; every column path below must
# produce exactly the string it gives for each value, and any column they
# do not cover (bool, int mixed with None, subclasses) goes through it
# cell by cell.  Chunks keep the transposed columns of a long table from
# sitting in memory at once.
_CHUNK_ROWS = 2048

# Characters that can make csv.writer quote a field, and those the JSON
# string escape rewrites; a string without them is its own cell text.
_SPECIAL = {
    "csv": re.compile('[,"\r\n]').search,
    "json": re.compile(r'["\\]').search,
}


def _csv_field(text: str) -> str:
    """The text csv.writer gives ``text`` as one field of a longer record."""
    if not _SPECIAL["csv"](text):
        return text
    # csv.writer has the last word: with "\n" line ends, Python 3.11
    # leaves a lone "\r" unquoted.  Imported here, its one use, so that
    # a command that quotes nothing does not load it.
    import csv

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def _fractions(values: tuple) -> Iterable[str]:
    """A table column of twice-integers as halves: 3 becomes "3/2"."""
    if set(map(type, values)) <= {int, NoneType}:
        text = {v: _half(v) for v in set(values) if v is not None}
        text[None] = ""
        return map(text.__getitem__, values)
    return ["" if v is None else _half(v) for v in values]


def _floats_once(values: tuple, fmt: str) -> Iterable[str]:
    """Texts of a float/None column that formats each distinct object once.

    Keyed by identity, not value, so -0.0 next to 0.0 and each nan keep
    their own text.
    """
    ids = list(map(id, values))
    none = "null" if fmt == "json" else ""
    text = {i: none if v is None else f"{v:.15g}" for i, v in dict(zip(ids, values)).items()}
    return map(text.__getitem__, ids)


def _slot(values: tuple, fmt: str) -> tuple[str, Iterable]:
    """One column's `%` slot in a row of ``fmt``, and what fills it."""
    types = set(map(type, values))
    if types == {int}:
        return "%d", values
    if types <= {float, NoneType}:
        head = values[:64]
        if 2 * len(set(map(id, head))) <= len(head):
            # The rows share float objects (a scan's s and q repeat on
            # every |m| row), so formatting each object once is cheaper.
            return "%s", _floats_once(values, fmt)
        if types == {float}:
            return "%.15g", values
        none = "null" if fmt == "json" else ""
        return "%s", [none if v is None else f"{v:.15g}" for v in values]
    if types == {str}:
        if fmt == "table" or not any(map(_SPECIAL[fmt], set(values))):
            return ('"%s"' if fmt == "json" else "%s"), values
        quote = _json_value if fmt == "json" else _csv_field
        text = {v: quote(v) for v in set(values)}
        return "%s", map(text.__getitem__, values)
    if fmt == "json":
        return "%s", map(_json_value, values)
    cells = map(_cell, values)
    return "%s", (map(_csv_field, cells) if fmt == "csv" else cells)


def _row_lines(fmt: str, keys: Sequence[str], end: str, rows: Sequence[tuple]) -> list[str]:
    """Each row's text: key, slot, key, slot, ..., end, one % template per chunk.

    The keys are literal template text, so they must have any % doubled.
    """
    lines: list[str] = []
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        cols = list(zip(*chunk))
        slots, fills = zip(*[_slot(col, fmt) for col in cols])
        template = "".join(key + slot for key, slot in zip(keys, slots)) + end
        if any(fill is not col for fill, col in zip(fills, cols)):
            chunk = zip(*fills)
        lines.extend(map(template.__mod__, chunk))
    return lines


def _emit_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    lines = _row_lines("csv", [""] + [","] * (len(columns) - 1), "\n", rows)
    lines.insert(0, ",".join(map(_csv_field, columns)) + "\n")
    if len(columns) == 1:
        # csv.writer writes a record whose one field is empty as "".
        lines = ['""\n' if line == "\n" else line for line in lines]
    return "".join(lines)


def _emit_json(config: dict[str, Any], columns: Sequence[str], rows: Sequence[tuple]) -> str:
    config_body = ", ".join(f'"{k}": {_json_value(v)}' for k, v in config.items())
    head = "{\n" f'  "config": {{{config_body}}},\n' '  "rows": [\n'
    tail = "\n  ]\n}\n"
    if not rows:
        return head + tail
    keys = [f'"{c}": '.replace("%", "%%") for c in columns]
    keys = ["    {" + keys[0]] + [", " + key for key in keys[1:]]
    lines = _row_lines("json", keys, "}", rows)
    # Gluing head and tail onto the end lines lets one join build the
    # document instead of copying the joined rows twice more.
    lines[0] = head + lines[0]
    lines[-1] += tail
    return ",\n".join(lines)


def _emit_table(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    names = [_FRACTION_COLUMNS.get(c, c) for c in columns]
    cols = zip(*rows) if rows else [()] * len(columns)

    def cells(name: str, values: tuple) -> Iterable[str]:
        if name in _FRACTION_COLUMNS:
            return _fractions(values)
        slot, fill = _slot(values, "table")
        return fill if slot == "%s" else map(slot.__mod__, fill)

    rendered = [list(cells(c, col)) for c, col in zip(columns, cols)]
    widths = [max(len(n), max(map(len, col), default=0)) for n, col in zip(names, rendered)]
    out = ["  ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    row_line = "  ".join(f"%-{w}s" for w in widths)
    out.extend((row_line % cells).rstrip() for cells in zip(*rendered))
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
    d = _resolve_deformation(q, s)
    unit, factor = _UNIT_FLAGS[units]
    table = level_table(SpinLabel(twice_j_max), d, mode)
    columns = ["twice_j", "twice_abs_m", "n", "energy", "unit", "multiplicity"]
    rows = [
        (lv.j.twice_j, lv.twice_abs_m, lv.principal_n, lv.energy_ry * factor, unit,
         lv.multiplicity)
        for lv in table
    ]
    config = {"command": "levels", "q": d.q, "s": d.s, "twice_j_max": twice_j_max,
              "mode": mode, "units": unit}
    _write(_render(fmt, config, columns, rows), output)


def states(twice_j, mode, fmt, output) -> None:
    """Enumerate the coupled (m, p) states at one spin."""
    state_list = enumerate_states(SpinLabel(twice_j), mode)
    columns = ["twice_j", "twice_m", "twice_p"]
    rows = [(st.j.twice_j, st.twice_m, st.twice_p) for st in state_list]
    config = {"command": "states", "twice_j": twice_j, "mode": mode, "count": len(rows)}
    _write(_render(fmt, config, columns, rows), output)


def lines(q, s, twice_j_max, lower_twice_j, lower_twice_abs_m, units, fmt, output) -> None:
    """Series of lines from all levels above a lower level down to it."""
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
        (line.upper[0].twice_j, line.upper[1], line.lower[0].twice_j, line.lower[1],
         line.delta_energy * factor, unit, line.wavenumber_per_cm, line.wavelength_nm)
        for line in table
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
    else:
        for name, value in (("--s-min", s_min), ("--s-max", s_max)):
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(s_max - s_min):
            # The grid would hold inf - inf and 0 * inf points (nan).
            raise UsageError(f"--s-min {s_min!r} and --s-max {s_max!r} are too far "
                             f"apart: their difference overflows")
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
_MODE = {"--mode": ("mode", ("deformed", "undeformed"), "deformed", "")}
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
