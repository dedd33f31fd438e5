"""Output checker: judges one op's exit code and document against oracles.

Energies are checked on every row against an independent float64
evaluation of the closed form; rows that disagree, and a seeded sample
of the rest, are judged by an mpmath evaluation at 40 digits, to
relative 1e-12.  Energies whose exact value is below the smallest
normal double cannot carry 12 digits and only need to come out below
it too.  Scan rows the program flags are counted by reason, not failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter

import mpmath
import numpy as np

mpmath.mp.dps = 40

REL_TOL = 1e-12
DBL_MIN = 2.2250738585072014e-308
RYDBERG_EV = 13.605693122994
RYDBERG_PER_CM = 109737.31568
UNIT_NAMES = {"rydberg": "rydberg", "ev": "ev", "wavenumber": "wavenumber_per_cm"}
UNIT_FACTORS = {"rydberg": 1.0, "ev": RYDBERG_EV, "wavenumber_per_cm": RYDBERG_PER_CM}
MP_SAMPLE = 2

LEVEL_COLUMNS = ["twice_j", "twice_abs_m", "n", "energy", "unit", "multiplicity"]
LINE_COLUMNS = ["upper_twice_j", "upper_twice_abs_m", "lower_twice_j", "lower_twice_abs_m",
                "delta_energy", "unit", "wavenumber_per_cm", "wavelength_nm"]
SCAN_COLUMNS = ["s", "q", "twice_j", "twice_abs_m", "energy_ry", "deviation_ry", "flag"]
STATE_COLUMNS = ["twice_j", "twice_m", "twice_p"]
VERIFY_COLUMNS = ["twice_j", "q", "relation", "max_deviation", "tolerance", "passed"]
VERIFY_RELATIONS = ["[Iz,I+] = +I+", "[Iz,I-] = -I-", "[I+,I-] = [2Iz]",
                    "I-I+ + [Iz][Iz+1] = [j][j+1] Id"]
SO4_RELATIONS = sorted(
    f"[{f}{a},{g}{b}] = i {h}{c}"
    for f, g, h in (("L", "L", "L"), ("L", "M", "M"), ("M", "M", "L"))
    for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
)
FRACTION_COLUMNS = {
    "j": "twice_j", "m": "twice_m", "p": "twice_p", "|m|": "twice_abs_m",
    "upper_j": "upper_twice_j", "upper_|m|": "upper_twice_abs_m",
    "lower_j": "lower_twice_j", "lower_|m|": "lower_twice_abs_m",
}
INT_COLUMNS = {"twice_j", "twice_abs_m", "n", "multiplicity", "twice_m", "twice_p",
               "upper_twice_j", "upper_twice_abs_m", "lower_twice_j", "lower_twice_abs_m"}
FLOAT_COLUMNS = {"energy", "delta_energy", "wavenumber_per_cm", "wavelength_nm", "s", "q",
                 "energy_ry", "deviation_ry", "max_deviation", "tolerance"}
SCAN_FLAGS = ("overflow", "nonpositive_denominator")


class CheckFailure(Exception):
    """The output broke one of the documented properties."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


# ---------------------------------------------------------------- oracles

def mp_energy(tj: int, tam: int, s: float) -> mpmath.mpf:
    """E/Ry = -2/D at 40 digits, for the float s the program used."""
    j = mpmath.mpf(tj) / 2
    m = mpmath.mpf(tam) / 2
    if s == 0.0:
        def br(x):
            return x
    else:
        sm = mpmath.mpf(s)
        sh = mpmath.sinh(sm)

        def br(x):
            return mpmath.sinh(sm * x) / sh
    d = 8 * br(j) * br(j + 1) - 4 * br(m) * (br(m + 1) + br(m - 1)) + 8 * m * m + 2
    return -2 / d


def mp_bracket(x: float, s: float) -> mpmath.mpf:
    if s == 0.0:
        return mpmath.mpf(x)
    sm = mpmath.mpf(s)
    return mpmath.sinh(sm * x) / mpmath.sinh(sm)


def float_energy(tj, tam, s) -> np.ndarray:
    """Independent float64 closed form, vectorised over rows (and s)."""
    tj = np.asarray(tj, dtype=float)
    tam = np.asarray(tam, dtype=float)
    s = np.broadcast_to(np.asarray(s, dtype=float), tj.shape)
    j, m = tj / 2.0, tam / 2.0
    with np.errstate(all="ignore"):
        safe = np.where(s == 0.0, 1.0, s)
        sh = np.sinh(safe)

        def br(x):
            return np.where(s == 0.0, x, np.sinh(safe * x) / sh)

        d = 8.0 * br(j) * br(j + 1.0) - 4.0 * br(m) * (br(m + 1.0) + br(m - 1.0)) + 8.0 * m * m + 2.0
        return -2.0 / d


def close(out: float, exact, tol: float = REL_TOL) -> bool:
    """|out - exact| <= tol |exact|, or both below the normal range."""
    if out is None or not math.isfinite(out):
        return False
    if abs(exact) < DBL_MIN:
        return abs(out) <= DBL_MIN * (1.0 + tol)
    return abs(out - exact) <= tol * abs(exact)


def log_abs_energy(tj, tam, s) -> np.ndarray:
    """log|E| from log-space brackets, for rows where float64 D overflows (s != 0).

    Uses [m]([m+1] + [m-1]) = 2 cosh(s) [m]^2, so
    D = 8[j][j+1] - 8 cosh(s) [m]^2 + 8 m^2 + 2, and the constant terms
    are negligible wherever this is needed.
    """
    a_s = np.abs(np.asarray(s, dtype=float))
    j, m = np.asarray(tj, dtype=float) / 2.0, np.asarray(tam, dtype=float) / 2.0

    def log_sinh(y):
        return y - math.log(2.0) + np.log1p(-np.exp(-2.0 * y))

    def log_br(x):
        return log_sinh(a_s * x) - log_sinh(a_s)

    with np.errstate(all="ignore"):
        a = math.log(8.0) + log_br(j) + log_br(j + 1.0)
        log_cosh = a_s + np.log1p(np.exp(-2.0 * a_s)) - math.log(2.0)
        b = np.where(m > 0, math.log(8.0) + log_cosh + 2.0 * log_br(m), -np.inf)
        return math.log(2.0) - (a + np.log1p(-np.exp(b - a)))


LOG_DBL_MIN = math.log(DBL_MIN)


def check_energies(out_ry, tj, tam, s, rng: random.Random, what: str) -> None:
    """Every row against float64, disagreements and a sample against mpmath."""
    out_ry = np.asarray(out_ry, dtype=float)
    if out_ry.size == 0:
        return
    tj = np.asarray(tj)
    tam = np.asarray(tam)
    s_arr = np.broadcast_to(np.asarray(s, dtype=float), out_ry.shape)
    approx = float_energy(tj, tam, s_arr)
    with np.errstate(all="ignore"):
        ok = (np.abs(out_ry - approx) <= REL_TOL * np.abs(approx)) & (np.abs(approx) >= DBL_MIN)
    ok &= np.isfinite(approx) & np.isfinite(out_ry)
    # Far below the normal range (by a factor e) the output only has to be tiny too.
    rest = np.flatnonzero(~ok & (s_arr != 0.0))
    if rest.size:
        far = log_abs_energy(tj[rest], tam[rest], s_arr[rest]) < LOG_DBL_MIN - 1.0
        ok[rest[far & (np.abs(out_ry[rest]) <= DBL_MIN)]] = True
    suspects = set(np.flatnonzero(~ok).tolist())
    suspects.update(rng.sample(range(out_ry.size), min(MP_SAMPLE, out_ry.size)))
    for i in sorted(suspects):
        exact = mp_energy(int(tj[i]), int(tam[i]), float(s_arr[i]))
        require(close(float(out_ry[i]), exact),
                f"{what} row {i}: {out_ry[i]!r} vs oracle {mpmath.nstr(exact, 17)}")


# ---------------------------------------------------------------- parsing

def _floats(values):
    return [None if v is None or v == "" else float(v) for v in values]


def _bools(values):
    require(all(v in ("true", "false", True, False) for v in values), "bad boolean")
    return [v in ("true", True) for v in values]


def _typed(column: str, values: list) -> list:
    if column in INT_COLUMNS:
        return list(map(int, values))
    if column in FLOAT_COLUMNS:
        return _floats(values)
    if column == "passed":
        return _bools(values)
    return ["" if v is None else v for v in values]


def _half_to_twice(text: str) -> int:
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


def _parse_table(text: str):
    lines = text.split("\n")
    require(len(lines) >= 3 and lines[-1] == "", "table: truncated")
    header, dashes, body = lines[0], lines[1], lines[2:-1]
    spans, pos = [], 0
    for group in dashes.split("  "):
        require(bool(group) and set(group) == {"-"}, "table: bad rule line")
        spans.append((pos, pos + len(group)))
        pos += len(group) + 2
    spans[-1] = (spans[-1][0], None)
    names = [header[a:b].strip() for a, b in spans]
    columns = [FRACTION_COLUMNS.get(n, n) for n in names]
    raw = {}
    for name, col, (a, b) in zip(names, columns, spans):
        cells = [line[a:b].strip() for line in body]
        raw[col] = [_half_to_twice(c) for c in cells] if name in FRACTION_COLUMNS else cells
    return columns, raw, len(body), None


def parse_document(fmt: str, text: str):
    """(columns, {column: typed values}, row count, json config or None)."""
    try:
        if fmt == "csv":
            records = list(csv.reader(io.StringIO(text, newline="")))
            require(bool(records), "csv: empty document")
            columns, body = records[0], records[1:]
            require(all(len(r) == len(columns) for r in body), "csv: ragged rows")
            raw = {c: [r[k] for r in body] for k, c in enumerate(columns)}
            nrows, config = len(body), None
        elif fmt == "json":
            doc = json.loads(text)
            require(set(doc) == {"config", "rows"}, "json: top-level keys")
            rows, config = doc["rows"], doc["config"]
            columns = list(rows[0]) if rows else None
            require(all(list(r) == columns for r in rows), "json: row keys differ")
            raw = {c: [r[c] for r in rows] for c in columns or ()}
            nrows = len(rows)
        else:
            columns, raw, nrows, config = _parse_table(text)
        table = {c: _typed(c, v) for c, v in raw.items()}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailure(f"{fmt}: unparsable ({exc})") from None
    return columns, table, nrows, config


def _columns_ok(columns, expected, nrows) -> None:
    if columns is None:  # JSON with no rows carries no column list
        require(nrows == 0, "json: rows without columns")
        return
    require(list(columns) == expected, f"columns {columns} != {expected}")


def _col(table, name, nrows):
    return table.get(name, [None] * nrows) if nrows == 0 else table[name]


# ---------------------------------------------------------------- commands

def _level_keys(tj_max: int):
    tj, tam = [], []
    for t in range(tj_max + 1):
        for a in range(t % 2, t + 1, 2):
            tj.append(t)
            tam.append(a)
    return np.array(tj), np.array(tam)


def check_levels(spec, text, rng, info):
    columns, t, n, config = parse_document(spec["fmt"], text)
    _columns_ok(columns, LEVEL_COLUMNS, n)
    if config is not None:
        require(config.get("command") == "levels" and config.get("mode") == spec["mode"],
                "json config block")
    tj_max, deformed = spec["tj_max"], spec["mode"] == "deformed"
    unit = UNIT_NAMES[spec["units"]]
    expected = sum(k // 2 + 1 for k in range(tj_max + 1)) if deformed else tj_max + 1
    require(n == expected, f"levels: {n} rows, expected {expected}")
    info["rows"] = n
    if not n:
        return
    tj, tam = np.array(t["twice_j"]), np.array(t["twice_abs_m"])
    require(np.all((tj >= 0) & (tj <= tj_max)) and np.array_equal(np.array(t["n"]), tj + 1)
            and all(u == unit for u in t["unit"]), "levels: j, n or unit column")
    mult = np.array(t["multiplicity"])
    if deformed:
        require(np.all((tam >= 0) & (tam <= tj) & ((tam - tj) % 2 == 0))
                and np.array_equal(mult, np.where(tam == 0, 1, 4)), "levels: |m| or multiplicity")
    else:
        require(np.all(tam == 0) and np.array_equal(mult, (tj + 1) ** 2),
                "levels: |m| or multiplicity")
    require(len(set(zip(tj.tolist(), tam.tolist()))) == n, "levels: duplicate (j, |m|)")
    require(all(e is not None for e in t["energy"]), "levels: missing energy")
    out = np.array(t["energy"], dtype=float)
    s = spec["s"] if deformed else 0.0
    out_ry = out / UNIT_FACTORS[unit]
    check_energies(out_ry, tj, tam, s, rng, "levels")
    # Sorted by energy, ties by (j, |m|): printed values never decrease, the
    # oracle agrees to rounding, and exact ties (s = 0) keep label order.
    require(bool(np.all(out[:-1] <= out[1:])), "levels: energies not ascending")
    approx = float_energy(tj, tam, s)
    with np.errstate(all="ignore"):
        slack = 1e-14 * np.abs(approx[1:]) + DBL_MIN
        require(bool(np.all(~(approx[:-1] > approx[1:] + slack))), "levels: order disagrees with oracle")
    if s == 0.0:
        tie = out[:-1] == out[1:]
        key = tj * 10_000 + tam
        require(bool(np.all(~tie | (key[:-1] < key[1:]))), "levels: tie order")


def _expected_uppers(spec):
    """Labels of the distinct levels strictly above the lower level."""
    s, lower = spec["s"], (spec["lower_tj"], spec["lower_tam"])
    tj, tam = _level_keys(spec["tj_max"])
    if s == 0.0:
        return {(n - 1, (n - 1) % 2) for n in range(lower[0] + 2, spec["tj_max"] + 2)}
    e = float_energy(tj, tam, s)
    e_low = float(float_energy([lower[0]], [lower[1]], s)[0])
    uppers = set()
    near = np.abs(e - e_low) <= 1e-10 * abs(e_low)
    for k in np.flatnonzero(near | (e > e_low)).tolist():
        key = (int(tj[k]), int(tam[k]))
        if key == lower:
            continue
        if not near[k] or mp_energy(*key, s) > mp_energy(*lower, s):
            uppers.add(key)
    return uppers


MERGE_TOL = 1e-14


def check_lines(spec, text, rng, info):
    """Rows are the distinct upper levels.  Levels whose exact energies differ
    but agree to MERGE_TOL may come out as one line (the program deduplicates
    equal doubles); they are counted in info["merged"], not failed."""
    columns, t, n, config = parse_document(spec["fmt"], text)
    _columns_ok(columns, LINE_COLUMNS, n)
    if config is not None:
        require(config.get("command") == "lines", "json config block")
    unit = UNIT_NAMES[spec["units"]]
    lower = (spec["lower_tj"], spec["lower_tam"])
    s = spec["s"]
    uppers = _expected_uppers(spec)
    info["rows"] = n
    got = list(zip(_col(t, "upper_twice_j", n), _col(t, "upper_twice_abs_m", n)))
    require(len(set(got)) == n and set(got) <= uppers, "lines: upper levels not all above the lower one")
    missing = sorted(uppers - set(got))
    if missing:
        require(s != 0.0, "lines: missing upper levels")
        kept = np.sort(float_energy(*np.array(got).T, s)) if got else np.array([np.inf])
        lost = float_energy(*np.array(missing).T, s)
        idx = np.searchsorted(kept, lost)
        below = kept[np.clip(idx - 1, 0, len(kept) - 1)]
        above = kept[np.clip(idx, 0, len(kept) - 1)]
        nearest = np.minimum(np.abs(below - lost), np.abs(above - lost))
        require(bool(np.all(nearest <= MERGE_TOL * np.abs(lost))),
                f"lines: {len(missing)} upper levels missing")
    info["merged"] = len(missing)
    if not n:
        return
    require(all(k == lower for k in zip(t["lower_twice_j"], t["lower_twice_abs_m"]))
            and all(u == unit for u in t["unit"]), "lines: lower level or unit column")
    delta_out = np.array(t["delta_energy"], dtype=float)
    wavenumber_out = np.array(t["wavenumber_per_cm"], dtype=float)
    wavelength = np.array(t["wavelength_nm"], dtype=float)
    require(bool(np.all(np.abs(wavelength * wavenumber_out - 1e7) <= 1e-13 * 1e7)),
            "lines: wavelength * wavenumber != 1e7")
    require(bool(np.all(delta_out[:-1] <= delta_out[1:])), "lines: not sorted by transition energy")
    up_tj, up_tam = np.array(t["upper_twice_j"]), np.array(t["upper_twice_abs_m"])
    e_up = float_energy(up_tj, up_tam, s)
    e_low = float(float_energy([lower[0]], [lower[1]], s)[0])
    scale = np.maximum(np.abs(e_up), abs(e_low))
    delta = delta_out / UNIT_FACTORS[unit]
    wavenumber = wavenumber_out / RYDBERG_PER_CM
    exact = e_up - e_low
    suspects = set(rng.sample(range(n), min(MP_SAMPLE, n)))
    for col in (delta, wavenumber):
        suspects.update(np.flatnonzero(~(np.abs(col - exact) <= REL_TOL * scale)).tolist())
    e_low_mp = mp_energy(*lower, s)
    for i in sorted(suspects):
        e_up_mp = mp_energy(int(up_tj[i]), int(up_tam[i]), s)
        d_mp = e_up_mp - e_low_mp
        tol = REL_TOL * max(abs(e_up_mp), abs(e_low_mp))
        require(abs(delta[i] - d_mp) <= tol and abs(wavenumber[i] - d_mp) <= tol,
                f"lines row {i}: delta {delta[i]!r} vs oracle {mpmath.nstr(d_mp, 17)}")


def scan_s_values(spec):
    if "s_values" in spec:
        return [float(v) for v in spec["s_values"]]
    return [float(v) for v in np.linspace(spec["s_min"], spec["s_max"], spec["s_count"])]


def check_scan(spec, text, rng, info, relerr=False):
    columns, t, n, config = parse_document(spec["fmt"], text)
    _columns_ok(columns, SCAN_COLUMNS, n)
    tj = spec["tj"]
    s_values = np.array(scan_s_values(spec))
    tams = np.arange(tj % 2, tj + 1, 2)
    require(n == len(s_values) * len(tams), f"scan: {n} rows, expected {len(s_values) * len(tams)}")
    info["rows"] = n
    if not n:
        return
    s = np.repeat(s_values, len(tams))
    tam = np.tile(tams, len(s_values))
    require(np.array_equal(np.array(t["twice_j"]), np.full(n, tj))
            and np.array_equal(np.array(t["twice_abs_m"]), tam), "scan: rows out of order")
    s_out = np.array(t["s"], dtype=float)
    require(bool(np.all(np.abs(s_out - s) <= 1e-14 * np.abs(s))), "scan: s column")
    q_expected = np.exp(np.where(np.abs(s) <= 709.0, s, 0.0))
    q_out = np.array([np.nan if v is None else v for v in t["q"]])
    require(bool(np.all((np.abs(s) > 709.0) | (np.abs(q_out - q_expected) <= 1e-14 * q_expected))),
            "scan: q column")
    flag = t["flag"]
    energy, deviation = t["energy_ry"], t["deviation_ry"]
    flagged = np.array([bool(f) for f in flag])
    for i in np.flatnonzero(flagged).tolist():
        require(flag[i] in SCAN_FLAGS and energy[i] is None and deviation[i] is None,
                f"scan row {i}: bad flagged row")
    info["flags"] = Counter(f for f in flag if f)
    good = np.flatnonzero(~flagged)
    require(all(energy[i] is not None and deviation[i] is not None for i in good.tolist()),
            "scan: unflagged row without values")
    e = np.array([energy[i] for i in good.tolist()], dtype=float)
    dev = np.array([deviation[i] for i in good.tolist()], dtype=float)
    e0 = -1.0 / (tj + 1) ** 2
    require(bool(np.all(np.abs(dev - (e - e0)) <= REL_TOL * abs(e0))), "scan: deviation != E - E0")
    check_energies(e, np.full(len(good), tj), tam[good], s[good], rng, "scan")
    if relerr:
        info["relerr_max"] = deviation_relerr(t, s_values.tolist(), tams.tolist(), tj)


def deviation_relerr(t, s_values, tams, tj) -> float:
    """Worst relative error of deviation_ry against mpmath, on a fixed subset:
    three |m| values, every s with |s| <= 1e-4 and every 25th s."""
    picked = sorted({tams[0], tams[len(tams) // 2], tams[-1]})
    e0 = -mpmath.mpf(1) / (tj + 1) ** 2
    worst = 0.0
    for k, s in enumerate(s_values):
        if s == 0.0 or not (abs(s) <= 1e-4 or k % 25 == 0):
            continue
        for tam in picked:
            i = k * len(tams) + tams.index(tam)
            if t["flag"][i]:
                continue
            e = mp_energy(tj, tam, s)
            exact = e - e0
            if abs(exact) <= 1e-30 * abs(e0) or abs(e) < DBL_MIN:
                continue  # n = 1, 2 levels do not move; no relative error to take
            worst = max(worst, float(abs((t["deviation_ry"][i] - exact) / exact)))
    return worst


def check_states(spec, text, rng, info):
    columns, t, n, _ = parse_document(spec["fmt"], text)
    _columns_ok(columns, STATE_COLUMNS, n)
    tj, weights = spec["tj"], list(range(spec["tj"], -spec["tj"] - 1, -2))
    expected = []
    for tm in weights:
        if spec["mode"] == "undeformed":
            expected += [(tj, tm, tp) for tp in weights]
        elif tm == 0:
            expected.append((tj, 0, 0))
        else:
            expected += [(tj, tm, abs(tm)), (tj, tm, -abs(tm))]
    got = list(zip(*(_col(t, c, n) for c in STATE_COLUMNS)))
    require(got == expected, f"states: {n} rows differ from the {len(expected)} expected")
    info["rows"] = n


def check_verify(spec, text, rng, info):
    columns, t, n, _ = parse_document(spec["fmt"], text)
    _columns_ok(columns, VERIFY_COLUMNS, n)
    blocks = spec["tj_max"] + 1
    require(n == 4 * blocks, f"verify: {n} rows, expected {4 * blocks}")
    require(t["twice_j"] == [i // 4 for i in range(n)]
            and t["relation"] == VERIFY_RELATIONS * blocks, "verify: rows out of order")
    require(all(t["passed"]) and all(tol == spec["tolerance"] for tol in t["tolerance"])
            and all(d <= spec["tolerance"] for d in t["max_deviation"]), "verify: a relation failed")
    require(all(abs(q - spec["q"]) <= 1e-14 * spec["q"] for q in t["q"]), "verify: q column")
    info["rows"] = n


def check_dump(spec, text, rng, info):
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckFailure(f"dump-irrep: unparsable ({exc})") from None
    tj, dim, s = spec["tj"], spec["tj"] + 1, spec["s"]
    require(doc.get("j_times_2") == tj and doc.get("dim") == dim
            and doc.get("operator") == spec["operator"]
            and abs(doc.get("q", 0) - spec["q"]) <= 1e-14 * spec["q"], "dump-irrep: header")
    entries = doc.get("entries")
    require(isinstance(entries, list) and len(entries) == dim * dim, "dump-irrep: entry count")
    expected = {}
    for k in range(dim):
        tm = tj - 2 * k
        if spec["operator"] == "iz":
            expected[(k, k)] = tm / 2.0
        elif k > 0:
            key = (k - 1, k) if spec["operator"] == "iplus" else (k, k - 1)
            expected[key] = ((tj + tm) // 2 + 1, (tj - tm) // 2)
    for idx, pair in enumerate(entries):
        require(isinstance(pair, list) and len(pair) == 2 and pair[1] == 0,
                f"dump-irrep entry {idx}")
        want = expected.get(divmod(idx, dim), 0.0)
        if isinstance(want, tuple):
            exact = mpmath.sqrt(mp_bracket(want[0], s) * mp_bracket(want[1], s))
            require(close(float(pair[0]), exact), f"dump-irrep entry {idx}: ladder weight")
        else:
            require(pair[0] == want, f"dump-irrep entry {idx}: {pair[0]} != {want}")
    info["rows"] = dim


def check_so4(spec, text, rng, info):
    reports = json.loads(text)
    require(sorted(r[0] for r in reports) == SO4_RELATIONS, "so4: relation set")
    require(all(r[3] is True and r[1] <= r[2] == spec["tolerance"] for r in reports),
            "so4: relation failed")
    info["rows"] = len(reports)


CHECKERS = {
    "levels": check_levels,
    "lines": check_lines,
    "scan": check_scan,
    "states": check_states,
    "verify": check_verify,
    "dump-irrep": check_dump,
    "so4": check_so4,
}


def check_op(op, exit_code, text, rng, golden_dir=None, relerr=False) -> tuple[str | None, dict]:
    """(failure reason or None, info with rows/flags/merged) for one op's result."""
    info = {"rows": 0, "flags": Counter(), "merged": 0}
    spec = op["spec"]
    try:
        require(exit_code == op["expect"], f"exit code {exit_code}, expected {op['expect']}")
        if op["expect"] != 0:
            require(text == "", "error exit wrote to stdout")
            return None, info
        if "golden" in spec:
            golden = (golden_dir / spec["golden"]).read_text(encoding="utf-8")
            require(text == golden, f"differs from golden {spec['golden']}")
        if spec["cmd"] == "scan":
            check_scan(spec, text, rng, info, relerr)
        else:
            CHECKERS[spec["cmd"]](spec, text, rng, info)
    except CheckFailure as exc:
        return str(exc), info
    return None, info


# ---------------------------------------------------------------- self-test

SELF_TEST_OP = {
    "argv": ["levels", "--q", "2", "--j-max", "6"],
    "expect": 0,
    "spec": {"cmd": "levels", "q": 2.0, "s": math.log(2.0), "tj_max": 6, "mode": "deformed",
             "units": "rydberg", "fmt": "csv"},
}


def _alter_energy_digit(text: str) -> str:
    lines = text.split("\n")
    for i in range(len(lines) - 2, 0, -1):
        cells = lines[i].split(",")
        digits = [k for k, ch in enumerate(cells[3]) if ch.isdigit() and ch != "0"]
        if len(digits) >= 3:
            k = digits[2]
            cells[3] = cells[3][:k] + str((int(cells[3][k]) + 1) % 10) + cells[3][k + 1:]
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise AssertionError("no energy with three nonzero digits to alter")


def self_test(text: str, exit_code: int) -> dict:
    """The clean result must pass; each injected corruption must fail."""
    lines = text.split("\n")
    cases = {
        "clean": (exit_code, text),
        "altered_energy_digit": (exit_code, _alter_energy_digit(text)),
        "dropped_row": (exit_code, "\n".join(lines[:2] + lines[3:])),
        "wrong_exit_code": (1, text),
    }
    verdicts = {}
    for name, (code, body) in cases.items():
        reason, _ = check_op(SELF_TEST_OP, code, body, random.Random(0))
        verdicts[name] = reason is None if name == "clean" else reason is not None
    return {"passed": all(verdicts.values()), "cases": verdicts}
