"""Output checks: every run against its own oracle, every CSV by its hash.

The tolerances are the ones the acceptance suite states for the same oracle
(tests/test_acceptance.py); a run passes only if its report carries the
oracle value and the value is within the tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# scenario -> (report result key, tolerance)
ORACLE_TOLERANCE = {
    "umbilical-flow": ("oracle_sup_error", 0.05),  # acceptance criterion 02
    "tau-flow": ("scalar_match", 1e-3),  # criterion 05
    "cone-check": ("sup_err_lambda", 5e-3),  # criterion 03
    "cohomology": ("residual", 1e-10),  # criterion 11
    "revolution": ("closed_form_sup_error", 1e-8),  # criterion 12
}

REPORT_FILES = ("report.json", "sweep_report.json")  # carry wall times


def check_report(config: dict, report: dict, expect: dict) -> list[str]:
    """Problems found in one run's report; an empty list means it passed."""
    scenario = config.get("scenario")
    want_exit = expect.get("exit", 0)
    code = report.get("exit_status")
    if code != want_exit:
        return [f"exit status {code}, expected {want_exit}: {report.get('error')}"]
    if "worst_mode" in expect:
        u = tuple(expect["worst_mode"])
        names = (f"mode u = {u}", f"mode u = {tuple(-c for c in u)}")
        if not any(name in str(report.get("error")) for name in names):
            return [f"resonance error does not name {u}: {report.get('error')}"]
        return []
    results = report.get("results", {})
    problems = []
    if "oracle_note" in results:
        problems.append(f"unverified: {results['oracle_note']}")
    if scenario in ORACLE_TOLERANCE:
        key, tol = ORACLE_TOLERANCE[scenario]
        value = results.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} missing: {value!r}")
        elif value > tol:
            problems.append(f"{key} = {value:.3e} exceeds {tol:.0e}")
    if "verdict" in expect and results.get("verdict") != expect["verdict"]:
        problems.append(
            f"verdict {results.get('verdict')!r}, expected {expect['verdict']!r}"
        )
    if "spectrum" in expect and not _has_spectrum(results, expect["spectrum"]):
        problems.append(f"planted spectrum {expect['spectrum']} not classified")
    return problems


def _has_spectrum(results: dict, planted: dict, rel: float = 1e-9) -> bool:
    want = sorted(zip(planted["roots"], planted["multiplicities"]))
    for sp in results.get("spectra", []):
        got = sorted(zip(sp["roots"], sp["multiplicities"]))
        if len(got) == len(want) and all(
            gm == wm and abs(gr - wr) <= rel * max(1.0, abs(wr))
            for (gr, gm), (wr, wm) in zip(got, want)
        ):
            return True
    return False


def check_job(job, outdir: Path, aggregate: dict | None = None) -> list[str]:
    """Check one job's outputs in outdir (a run, or every member of a sweep)."""
    if job.kind == "run":
        return check_report(job.configs[0], _load(outdir / "report.json"), job.expect)
    problems = []
    for idx, cfg in enumerate(job.configs):
        report = _load(outdir / f"run_{idx:03d}" / "report.json")
        problems += [f"member {idx}: {p}" for p in check_report(cfg, report, {})]
    want = job.expect.get("largest_stable_cfl")
    if want is not None and (aggregate or {}).get("largest_stable_cfl") != want:
        problems.append(
            f"largest_stable_cfl {(aggregate or {}).get('largest_stable_cfl')}, "
            f"expected {want}"
        )
    return problems


def _load(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return {"exit_status": None, "error": f"unreadable report {path}: {exc}"}


def output_digest(outdir: Path) -> dict:
    """{relative path: sha256} of every output file under outdir except the
    timed reports."""
    digests = {}
    for path in sorted(p for p in Path(outdir).rglob("*") if p.is_file()):
        if path.name in REPORT_FILES:
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digests[str(path.relative_to(outdir))] = h.hexdigest()
    return digests
