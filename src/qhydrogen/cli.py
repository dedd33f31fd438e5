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
import io
import math
import sys
from typing import Any, Sequence

import click
import numpy as np

from .irreps import build_irrep, casimir_identity_report, verify_commutators
from .lines import series_table, splitting_scan
from .qnum import DeformationParameter, QNumberOverflowError, SpinLabel
from .spectrum import (
    NonPositiveDenominatorError,
    UnitsConfig,
    enumerate_states,
    level_table,
)

__all__ = ["cli", "main"]

_UNIT_FLAGS = {
    "rydberg": "rydberg",
    "ev": "ev",
    "wavenumber": "wavenumber_per_cm",
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


def _emit_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _emit_json(config: dict[str, Any], columns: Sequence[str], rows: Sequence[tuple]) -> str:
    config_body = ", ".join(f'"{k}": {_json_value(v)}' for k, v in config.items())
    keys = [f'"{c}": ' for c in columns]
    row_lines = []
    for row in rows:
        body = ", ".join([key + _json_value(value) for key, value in zip(keys, row)])
        row_lines.append("    {" + body + "}")
    rows_body = ",\n".join(row_lines)
    return (
        "{\n"
        f'  "config": {{{config_body}}},\n'
        '  "rows": [\n' + rows_body + "\n  ]\n"
        "}\n"
    )


def _emit_table(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    names = [_FRACTION_COLUMNS.get(c, c) for c in columns]
    fraction = [c in _FRACTION_COLUMNS for c in columns]
    rendered = [
        [_half(value) if frac and value is not None else _cell(value)
         for value, frac in zip(row, fraction)]
        for row in rows
    ]
    widths = [max(len(n), *(len(r[i]) for r in rendered)) if rendered else len(n)
              for i, n in enumerate(names)]
    out = ["  ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for cells in rendered:
        out.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
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
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(document)


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
    u = UnitsConfig(output_unit=_UNIT_FLAGS[units])
    table = level_table(SpinLabel(twice_j_max), d, mode)
    columns = ["twice_j", "twice_abs_m", "n", "energy", "unit", "multiplicity"]
    rows = [
        (lv.j.twice_j, lv.twice_abs_m, lv.principal_n, u.convert(lv.energy_ry),
         u.output_unit, lv.multiplicity)
        for lv in table
    ]
    config = {"command": "levels", "q": d.q, "s": d.s, "twice_j_max": twice_j_max,
              "mode": mode, "units": u.output_unit}
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
    u = UnitsConfig(output_unit=_UNIT_FLAGS[units])
    try:
        table = series_table(SpinLabel(lower_twice_j), lower_twice_abs_m,
                             SpinLabel(twice_j_max), d, u)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    columns = ["upper_twice_j", "upper_twice_abs_m", "lower_twice_j", "lower_twice_abs_m",
               "delta_energy", "unit", "wavenumber_per_cm", "wavelength_nm"]
    rows = [
        (line.upper[0].twice_j, line.upper[1], line.lower[0].twice_j, line.lower[1],
         line.delta_energy, u.output_unit, line.wavenumber_per_cm, line.wavelength_nm)
        for line in table
    ]
    config = {"command": "lines", "q": d.q, "s": d.s, "twice_j_max": twice_j_max,
              "lower_twice_j": lower_twice_j, "lower_twice_abs_m": lower_twice_abs_m,
              "units": u.output_unit}
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
        s_values = [float(v) for v in np.linspace(s_min, s_max, s_count)]
    rows_data = splitting_scan(SpinLabel(twice_j), s_values)
    columns = ["s", "q", "twice_j", "twice_abs_m", "energy_ry", "deviation_ry", "flag"]
    rows = [
        (r.s, r.q, r.twice_j, r.twice_abs_m, r.energy_ry, r.deviation_ry, r.flag)
        for r in rows_data
    ]
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
    if not tolerance > 0.0:
        raise click.UsageError(f"--tolerance must be positive, got {tolerance!r}")
    d = _resolve_deformation(q, s)
    columns = ["twice_j", "q", "relation", "max_deviation", "tolerance", "passed"]
    rows = []
    failed = 0
    for tj in range(twice_j_max + 1):
        r = build_irrep(SpinLabel(tj), d)
        reports = verify_commutators(r, tolerance)
        reports.append(casimir_identity_report(r, tolerance))
        for rep in reports:
            failed += not rep.passed
            rows.append((tj, d.q, rep.relation_name, rep.max_abs_deviation, rep.tolerance,
                         rep.passed))
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
    matrix = getattr(r, operator)
    entries = ", ".join(
        f"[{value.real:.15g}, {value.imag:.15g}]" for value in matrix.reshape(-1)
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
    """Entry point mapping errors onto the documented exit codes."""
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
