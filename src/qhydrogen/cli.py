"""Command-line front end: level tables, states, lines, scans, algebra checks.

Output is byte-deterministic for a fixed invocation: floats are printed
with 15 significant digits and a lowercase exponent, column orders are
fixed, and rows are emitted in the documented sort orders.  Data goes
to stdout (or --output); diagnostics go to stderr.  Exit status is 0 on
success, 1 on a validation error and 2 on a computational error
(including a failed `verify` run, so it can gate CI).
"""

from __future__ import annotations

import csv
import gc
import io
import math
import re
import sys
from types import NoneType
from typing import Any, Iterable, Sequence

import click

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

__all__ = ["cli", "main"]

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
    # leaves a lone "\r" unquoted.
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
    if output is None:
        sys.stdout.write(document)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(document)
    except OSError as exc:
        raise click.FileError(output, hint=exc.strerror) from None


def _resolve_deformation(q: float | None, s: float | None) -> DeformationParameter:
    if q is not None and s is not None:
        raise click.UsageError("--q and --s are mutually exclusive")
    try:
        if s is not None:
            return DeformationParameter.from_s(s)
        return DeformationParameter(1.0 if q is None else q)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc)) from None


def _deformation_options(f):
    f = click.option("--q", type=float, default=None,
                     help="Deformation q > 0 (default 1, the undeformed case).")(f)
    f = click.option("--s", type=float, default=None,
                     help="Deformation strength s = ln q; excludes --q.")(f)
    return f


def _format_option(f):
    return click.option("--format", "fmt", type=click.Choice(["csv", "json", "table"]),
                        default="csv", show_default=True, help="Output document format.")(f)


def _units_option(f):
    return click.option("--units", type=click.Choice(sorted(_UNIT_FLAGS)),
                        default="rydberg", show_default=True, help="Energy output unit.")(f)


def _output_option(f):
    return click.option("--output", type=click.Path(dir_okay=False, writable=True),
                        default=None, help="Write to this file instead of stdout.")(f)


@click.group()
def cli() -> None:
    """Deformed hydrogen bound-state spectrum toolkit.

    Half-integer spins are passed in exact twice-j form: --j-max 3
    means j = 3/2.  Pretty tables render them back as fractions.
    """


@cli.command()
@_deformation_options
@click.option("--j-max", "twice_j_max", type=click.IntRange(min=0), default=8,
              show_default=True, help="Largest twice-j to include.")
@click.option("--mode", type=click.Choice(["deformed", "undeformed"]), default="deformed",
              show_default=True)
@_units_option
@_format_option
@_output_option
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


@cli.command()
@click.option("--j", "twice_j", type=click.IntRange(min=0), required=True,
              help="Spin as twice-j (3 means j = 3/2).")
@click.option("--mode", type=click.Choice(["deformed", "undeformed"]), default="deformed",
              show_default=True)
@_format_option
@_output_option
def states(twice_j, mode, fmt, output) -> None:
    """Enumerate the coupled (m, p) states at one spin."""
    state_list = enumerate_states(SpinLabel(twice_j), mode)
    columns = ["twice_j", "twice_m", "twice_p"]
    rows = [(st.j.twice_j, st.twice_m, st.twice_p) for st in state_list]
    config = {"command": "states", "twice_j": twice_j, "mode": mode, "count": len(rows)}
    _write(_render(fmt, config, columns, rows), output)


@cli.command()
@_deformation_options
@click.option("--j-max", "twice_j_max", type=click.IntRange(min=0), default=8,
              show_default=True, help="Largest twice-j for upper levels.")
@click.option("--lower-j", "lower_twice_j", type=click.IntRange(min=0), default=0,
              show_default=True, help="Lower level spin as twice-j.")
@click.option("--lower-m", "lower_twice_abs_m", type=click.IntRange(min=0), default=0,
              show_default=True, help="Lower level |m| as twice the value.")
@_units_option
@_format_option
@_output_option
def lines(q, s, twice_j_max, lower_twice_j, lower_twice_abs_m, units, fmt, output) -> None:
    """Series of lines from all levels above a lower level down to it."""
    d = _resolve_deformation(q, s)
    unit, factor = _UNIT_FLAGS[units]
    try:
        table = series_table(SpinLabel(lower_twice_j), lower_twice_abs_m,
                             SpinLabel(twice_j_max), d)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
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


@cli.command()
@click.option("--j", "twice_j", type=click.IntRange(min=0), required=True,
              help="Spin as twice-j.")
@click.option("--s-values", "s_values_text", type=str, default=None,
              help="Comma-separated explicit s grid; overrides --s-min/--s-max/--s-count.")
@click.option("--s-min", type=float, default=0.0, show_default=True)
@click.option("--s-max", type=float, default=0.5, show_default=True)
@click.option("--s-count", type=click.IntRange(min=1), default=11, show_default=True)
@_format_option
@_output_option
def scan(twice_j, s_values_text, s_min, s_max, s_count, fmt, output) -> None:
    """Splitting of each |m| sublevel away from -1/n^2 versus s = ln q.

    Rows are always in Rydberg (columns energy_ry, deviation_ry);
    unphysical points are flagged instead of aborting the scan.
    """
    if s_values_text is not None:
        try:
            s_values = [float(tok) for tok in s_values_text.split(",") if tok.strip()]
        except ValueError:
            raise click.UsageError(f"--s-values is not a comma-separated float list: "
                                   f"{s_values_text!r}") from None
        if not s_values:
            raise click.UsageError("--s-values contained no values")
        for value in s_values:
            if not math.isfinite(value):
                raise click.UsageError(f"--s-values must be finite, got {value!r}")
    else:
        for name, value in (("--s-min", s_min), ("--s-max", s_max)):
            if not math.isfinite(value):
                raise click.UsageError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(s_max - s_min):
            # The grid would hold inf - inf and 0 * inf points (nan).
            raise click.UsageError(f"--s-min {s_min!r} and --s-max {s_max!r} are too far "
                                   f"apart: their difference overflows")
        s_values = _linspace(s_min, s_max, s_count)
    # The ScanRow fields are the columns, so rows render as they come.
    rows = splitting_scan(SpinLabel(twice_j), s_values)
    columns = ScanRow._fields
    config = {"command": "scan", "twice_j": twice_j, "s_count": len(s_values)}
    _write(_render(fmt, config, columns, rows), output)


@cli.command()
@_deformation_options
@click.option("--j-max", "twice_j_max", type=click.IntRange(min=0), default=8,
              show_default=True, help="Check every twice-j up to this.")
@click.option("--tolerance", type=float, default=1e-11, show_default=True,
              help="Maximum allowed (scale-normalized) deviation.")
@_format_option
@_output_option
def verify(q, s, twice_j_max, tolerance, fmt, output) -> None:
    """Verify commutation relations and the Casimir identity numerically.

    Exits with status 2 if any relation exceeds the tolerance, so this
    command can gate CI.
    """
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        # An infinite tolerance would pass every relation.
        raise click.UsageError(f"--tolerance must be finite and positive, got {tolerance!r}")
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


@cli.command("dump-irrep")
@_deformation_options
@click.option("--j", "twice_j", type=click.IntRange(min=0), required=True,
              help="Spin as twice-j.")
@click.option("--operator", type=click.Choice(["iz", "iplus", "iminus"]), required=True)
@_output_option
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


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (0, 1 or 2, as documented).

    The command runs with the cyclic garbage collector paused.  A table
    command keeps 10^4-10^5 row tuples alive, which the collector would
    scan again and again; the rows form no reference cycles, so
    reference counting alone frees them.  The collector is turned back
    on at every exit, and only if it was on when ``main`` was called.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (NonPositiveDenominatorError, QNumberOverflowError, VerificationFailedError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
