"""Performance trajectory: BENCH_sim.json history across commits.

``tools/profile_sim.py`` appends one line per benchmark run to
``BENCH_history.jsonl`` (commit, backend, workload, throughput).  This
module owns that file's schema and the regression analytics behind
``repro obs perf-trajectory``: group the history by benchmark identity
(app, policy, scale, backend) and flag any entry whose throughput drops
more than the CI smoke threshold (20%) below its predecessor.

Entries carry no timestamps on purpose -- the commit hash is the
ordering, and the file stays byte-reproducible for a given sequence of
runs.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Bump when the history-entry layout changes.
HISTORY_SCHEMA_VERSION = 1

#: Default history file, next to BENCH_sim.json at the repo root.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Fractional throughput drop vs the previous entry that counts as a
#: regression -- the same slack the CI perf-smoke gate applies.
DEFAULT_THRESHOLD = 0.20

_REQUIRED = {"v": int, "commit": str, "app": str, "policy": str,
             "scale": str, "backend": str, "sim_cycles_per_s": (int, float)}


def git_commit(cwd: Optional[str] = None) -> str:
    """Short commit hash of HEAD, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=cwd, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def entry_from_bench(bench: Dict, commit: Optional[str] = None) -> Dict:
    """One history line from a BENCH_sim.json payload."""
    entry = {
        "v": HISTORY_SCHEMA_VERSION,
        "commit": commit if commit is not None else git_commit(),
        "app": bench["app"],
        "policy": bench["policy"],
        "scale": bench["scale"],
        "backend": bench.get("backend", "auto"),
        "sim_cycles_per_s": bench["sim_cycles_per_s"],
    }
    best = bench.get("stages", {}).get("simulate_best_s")
    if best is not None:
        entry["best_s"] = best
    return entry


def entries_from_bench(bench: Dict, commit: Optional[str] = None) -> List[Dict]:
    """All history lines one BENCH payload yields: headline + backends.

    The headline entry carries the *resolved* backend of the run (so an
    ``auto`` resolution flip — e.g. fused -> compiled once the C
    extension exists — starts a new series rather than showing up as a
    spurious jump inside an old one), and every completed ``backends``
    sweep cell becomes its own per-backend entry.  ``detect_regressions``
    keys series on (app, policy, scale, backend), so the per-backend
    trajectories never cross-trigger the 20% gate.  Skipped sweep cells
    and the cell duplicating the headline backend are omitted.
    """
    resolved = commit if commit is not None else git_commit()
    entries = [entry_from_bench(bench, resolved)]
    headline_backend = bench.get("backend", "auto")
    for name in sorted(bench.get("backends", {})):
        cell = bench["backends"][name]
        if "skipped" in cell or name == headline_backend:
            continue
        entry = {
            "v": HISTORY_SCHEMA_VERSION,
            "commit": resolved,
            "app": bench["app"],
            "policy": bench["policy"],
            "scale": bench["scale"],
            "backend": name,
            "sim_cycles_per_s": cell["sim_cycles_per_s"],
        }
        if cell.get("best_s") is not None:
            entry["best_s"] = cell["best_s"]
        entries.append(entry)
    return entries


def check_history_entry(entry: object) -> List[str]:
    """Schema problems in one history line (empty list = valid)."""
    if not isinstance(entry, dict):
        return [f"entry must be a JSON object, got {type(entry).__name__}"]
    problems: List[str] = []
    if entry.get("v") != HISTORY_SCHEMA_VERSION:
        problems.append(f"history schema {entry.get('v')!r} != "
                        f"{HISTORY_SCHEMA_VERSION}")
    for field, expected in _REQUIRED.items():
        if field == "v":
            continue
        value = entry.get(field)
        if not isinstance(value, expected) or isinstance(value, bool):
            problems.append(f"field {field!r} missing or mistyped "
                            f"({value!r})")
    return problems


def load_history(path: str) -> List[Dict]:
    """Parse and validate a history file; raises ``ValueError`` on damage."""
    entries: List[Dict] = []
    problems: List[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        for problem in check_history_entry(entry):
            problems.append(f"line {lineno}: {problem}")
        entries.append(entry)
    if problems:
        raise ValueError(f"{path}: invalid history "
                         f"({'; '.join(problems[:5])})")
    return entries


def append_history(path: str, entry: Dict) -> None:
    """Validate and append one entry as a JSON line."""
    problems = check_history_entry(entry)
    if problems:
        raise ValueError(f"refusing to append invalid history entry: "
                         f"{'; '.join(problems)}")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True,
                            separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
def _key(entry: Dict) -> Tuple[str, str, str, str]:
    return (entry["app"], entry["policy"], entry["scale"],
            entry["backend"])


def detect_regressions(entries: Sequence[Dict],
                       threshold: float = DEFAULT_THRESHOLD) -> List[Dict]:
    """Consecutive-entry throughput drops beyond ``threshold``, per series.

    The history is grouped by benchmark identity (app, policy, scale,
    backend); within each series, entry *i* regresses when its
    ``sim_cycles_per_s`` falls below ``previous * (1 - threshold)``.
    """
    last: Dict[Tuple[str, str, str, str], Dict] = {}
    regressions: List[Dict] = []
    for entry in entries:
        key = _key(entry)
        prev = last.get(key)
        if prev is not None:
            floor = prev["sim_cycles_per_s"] * (1.0 - threshold)
            if entry["sim_cycles_per_s"] < floor:
                drop = 1.0 - (entry["sim_cycles_per_s"]
                              / prev["sim_cycles_per_s"])
                regressions.append({
                    "series": "/".join(key),
                    "prev_commit": prev["commit"],
                    "commit": entry["commit"],
                    "prev_cycles_per_s": prev["sim_cycles_per_s"],
                    "cycles_per_s": entry["sim_cycles_per_s"],
                    "drop": round(drop, 4),
                })
        last[key] = entry
    return regressions


def trajectory_report(entries: Sequence[Dict],
                      threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Human-readable trajectory lines: one per series, plus regressions."""
    series: Dict[Tuple[str, str, str, str], List[Dict]] = {}
    for entry in entries:
        series.setdefault(_key(entry), []).append(entry)
    lines: List[str] = []
    for key in sorted(series):
        chain = series[key]
        first, latest = chain[0], chain[-1]
        delta = ""
        if first is not latest and first["sim_cycles_per_s"]:
            change = (latest["sim_cycles_per_s"]
                      / first["sim_cycles_per_s"] - 1.0)
            delta = f" ({change:+.1%} over {len(chain)} entries)"
        lines.append(f"{'/'.join(key)}: "
                     f"{latest['sim_cycles_per_s']:,.0f} cycles/s "
                     f"@ {latest['commit']}{delta}")
    for reg in detect_regressions(entries, threshold):
        lines.append(f"REGRESSION {reg['series']}: "
                     f"{reg['prev_cycles_per_s']:,.0f} -> "
                     f"{reg['cycles_per_s']:,.0f} cycles/s "
                     f"(-{reg['drop']:.1%}, {reg['prev_commit']} -> "
                     f"{reg['commit']})")
    return lines
