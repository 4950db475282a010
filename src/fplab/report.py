"""Report rows and deterministic CSV / JSON emission.

Column order is part of the output contract:
suite,p,params,measured,skeleton,ratio,status,ms.  Files are written with
fixed float formatting and sorted JSON keys so identical (config, seed)
runs are byte-identical.
"""

import csv
import json
from dataclasses import dataclass

STATUSES = ("pass", "fail", "skip", "report")
CSV_COLUMNS = ("suite", "p", "params", "measured", "skeleton", "ratio", "status", "ms")


@dataclass
class ReportRow:
    suite: str
    p: int
    params: str
    measured: object = None
    skeleton: object = None
    ratio: object = None
    status: str = "report"
    ms: int = 0

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.suite,
                    row.p,
                    row.params,
                    fmt(row.measured),
                    fmt(row.skeleton),
                    fmt(row.ratio),
                    row.status,
                    row.ms,
                ]
            )


def summarize(rows, slopes=None) -> dict:
    counts = {}
    for row in rows:
        bucket = counts.setdefault(row.suite, {s: 0 for s in STATUSES})
        bucket[row.status] += 1
    out = {"suites": counts, "slopes": {}}
    for name, fit in (slopes or {}).items():
        if isinstance(fit, str):  # the reason a fit failed
            out.setdefault("failed_fits", {})[name] = fit
            continue
        out["slopes"][name] = {
            "slope": float(f"{fit.slope:.12g}"),
            "residual": float(f"{fit.residual:.12g}"),
            "n": fit.n,
        }
    return out


def write_json(summary: dict, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def count_failures(rows) -> int:
    return sum(1 for r in rows if r.status == "fail")
