"""Deterministic report emission: canonical JSON, text, and CSV.

Byte-identical reruns are part of the contract, so the canonical report
contains no wall-clock data (timings go to a sidecar file) and all
numeric CSV output uses a fixed 17-significant-digit scientific format.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict, is_dataclass

import numpy as np

REPORT_VERSION = 1


def format_float(x) -> str:
    """Fixed 17-significant-digit scientific notation for CSV cells."""
    return f"{float(x):.16e}"


def _plain(value):
    """Convert numpy scalars/arrays and dataclasses to JSON-safe values."""
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def record(suite: str, name: str, lhs=None, rhs=None, passed=None,
           note: str = "", extra=None) -> dict:
    if passed is not None:
        passed = bool(passed)
    rec = {
        "suite": suite,
        "name": name,
        "lhs": _plain(lhs),
        "rhs": _plain(rhs),
        "passed": passed,
        "note": note,
    }
    if extra:
        rec["extra"] = _plain(extra)
    return rec


def record_from_check(suite: str, check, extra=None) -> dict:
    return record(suite, check.name, check.lhs, check.rhs, check.passed,
                  check.note, extra)


@dataclass
class Report:
    config: dict
    records: list = field(default_factory=list)

    def add(self, rec: dict) -> None:
        self.records.append(rec)

    def extend(self, recs) -> None:
        self.records.extend(recs)

    @property
    def n_asserted(self) -> int:
        return sum(1 for r in self.records if r["passed"] is not None)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r["passed"] is False)

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "config": _plain(self.config),
            "records": self.records,
            "summary": {
                "total": len(self.records),
                "asserted": self.n_asserted,
                "failed": self.n_failed,
                "all_passed": self.all_passed,
            },
        }


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_canonical(obj))


class InputError(ValueError):
    """A file that walklab cannot read, or reports that do not mix."""


def read_json(path):
    """The JSON value in the file at ``path``; :class:`InputError`, naming
    the path, unless the file is ASCII JSON."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {data[exc.start]:#x} at offset "
                         f"{exc.start} is not ASCII") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def read_report(path) -> dict:
    """The report written to ``path``; :class:`InputError` unless
    :func:`read_json` finds an object there with a list of ``records``,
    each an object with every field that :func:`record` writes."""
    report = read_json(path)
    records = report.get("records") if isinstance(report, dict) else None
    fields = record("", "").keys()
    if not isinstance(records, list) or not all(
            isinstance(rec, dict) and fields <= rec.keys() for rec in records):
        raise InputError(f"{path} is not a walklab report: it holds no "
                         f"list of records")
    return report


def write_csv(path, header, rows) -> None:
    """CSV with canonical float formatting; ints and strings pass through."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, bool):
                    cells.append(str(int(cell)))
                elif isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                elif isinstance(cell, (float, np.floating)):
                    cells.append(format_float(cell))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")


def render_text(report: Report) -> str:
    lines = []
    cfg = report.config
    lines.append("walklab verification report")
    lines.append(f"graph: {cfg.get('graph')}")
    lines.append(f"suites: {cfg.get('suites')}  seed: {cfg.get('seed')}")
    lines.append("")
    width = max((len(r["name"]) for r in report.records), default=10)
    for r in report.records:
        status = {True: "PASS", False: "FAIL", None: "info"}[r["passed"]]
        lhs = r["lhs"]
        rhs = r["rhs"]
        body = ""
        if lhs is not None:
            body += f" lhs={lhs}"
        if rhs is not None:
            body += f" rhs={rhs}"
        if r["note"]:
            body += f"  ({r['note']})"
        lines.append(f"[{status:4}] {r['suite']:>9} {r['name']:<{width}}{body}")
    lines.append("")
    s = report.to_dict()["summary"]
    lines.append(f"checks: {s['total']} total, {s['asserted']} asserted, "
                 f"{s['failed']} failed")
    lines.append("RESULT: " + ("PASS" if report.all_passed else "FAIL"))
    return "\n".join(lines) + "\n"


def write_report(report: Report, out_dir, timings=None) -> dict:
    """Write report.json / report.txt (+ timings sidecar); returns paths.

    The sidecar is intentionally outside the determinism contract; the
    canonical files contain no timing or host data.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "json": os.path.join(out_dir, "report.json"),
        "text": os.path.join(out_dir, "report.txt"),
    }
    write_json(report.to_dict(), paths["json"])
    with open(paths["text"], "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_text(report))
    if timings is not None:
        paths["timings"] = os.path.join(out_dir, "timings.json")
        write_json({"timings_seconds": _plain(timings)}, paths["timings"])
    return paths


def emit_summary(report_dicts) -> dict:
    """Aggregate across runs: worst implied mixing-transfer constant, the
    measured sphere-hitting constants per excess class, and the cutoff
    ratio trend by graph size."""
    if not report_dicts:
        raise InputError("no reports to summarize")
    versions = {r.get("version") for r in report_dicts}
    if len(versions) != 1:
        raise InputError(f"incompatible report versions: "
                          f"{sorted(versions, key=repr)}")
    max_hitmix = None
    c_hat_by_excess = {}
    ratio_rows = []
    for rep in report_dicts:
        for rec in rep["records"]:
            if rec["name"] == "hitmix-constant" and rec["lhs"] is not None:
                val = rec["lhs"]
                if isinstance(val, (int, float)):
                    if max_hitmix is None or val > max_hitmix:
                        max_hitmix = val
            if rec["name"] == "c-hat-by-excess" and rec.get("extra"):
                for exc, c in rec["extra"].items():
                    prev = c_hat_by_excess.get(exc)
                    if prev is None or c > prev:
                        c_hat_by_excess[exc] = c
            if rec["name"] == "cutoff-ratios" and rec.get("extra"):
                ratio_rows.append(rec["extra"])
    ratio_rows.sort(key=lambda row: row.get("n", 0))
    return {
        "reports": len(report_dicts),
        "max_hitmix_constant": max_hitmix,
        "max_c_hat_by_excess": c_hat_by_excess,
        "cutoff_ratio_table": ratio_rows,
    }
