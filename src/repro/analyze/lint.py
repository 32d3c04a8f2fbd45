"""AST-based determinism/purity lint over the simulator sources.

The golden-trace corpus and the content-addressed result cache both assume
a simulation is a pure function of (config, workload spec, policy).  The
lint statically flags the code patterns that silently break that purity:

* ``unseeded-random`` (error) — any call through the global ``random``
  module (``random.random()``, ``random.shuffle`` ...).  Seeded
  ``random.Random(seed)`` instances are the sanctioned source of
  randomness; the module-level RNG is process-global state.  The same
  rule covers ``numpy.random``: draws through the legacy process-global
  RNG (``np.random.rand()`` ...) are errors, and the seeded-constructor
  allowlist (``default_rng``, ``Generator``, the bit generators,
  ``RandomState``) still flags zero-argument calls, which seed from OS
  entropy.  Plain numpy ufuncs/array ops are stateless and produce no
  findings.
* ``wall-clock`` (error) — reads of wall-clock time (``time.time``,
  ``perf_counter``, ``datetime.now`` ...).  Legitimate *reporting* uses
  carry an inline suppression.
* ``set-iteration`` (error) — iterating a ``set``/``frozenset`` directly
  in a ``for`` statement or comprehension.  Set order depends on
  ``PYTHONHASHSEED``; feeding it into scheduler decisions makes runs
  machine-dependent.  (Dict iteration is insertion-ordered and fine.)
* ``module-state`` (warning) — a module-level mutable container that some
  function in the same module mutates.  Such state leaks across
  simulations within one ``experiments.parallel`` worker process.
* ``wall-clock-allowance`` (error) — a *suppressed* wall-clock read in a
  file outside the sanctioned clock modules
  (:data:`_CLOCK_EXEMPT_SUFFIXES`).  Host-time reads are confined to
  ``repro.obs.clock`` and ``tools/calibrate.py``; everything in
  ``src/repro`` must route through ``repro.obs.clock`` so the audit
  surface stays one file.  This fires on the suppression itself, so
  sprinkling wall-clock allow tags in new code fails the gate rather
  than silently widening the exemption.

Suppression: append ``# lint: allow[<tag>]`` (or a bare ``# lint: allow``)
to the offending line.  Suppressions are deliberate, reviewable markers —
the CI gate fails on any unsuppressed error.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.validate.findings import Finding, FindingReport, Severity

#: Attributes of the ``random`` module that are legal to touch: seeded RNG
#: class constructors, not draws from the process-global generator.
_RANDOM_ALLOWED = {"Random", "SystemRandom"}

#: ``numpy.random`` attributes that construct an explicitly seedable RNG
#: (everything else on the module is a draw from the legacy process-global
#: ``RandomState``).  Zero-argument calls to these seed from OS entropy
#: and are still flagged.
_NUMPY_SEEDED = {"Generator", "default_rng", "SeedSequence", "RandomState",
                 "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "SFC64",
                 "MT19937"}

#: Wall-clock reads: (module, attribute) pairs.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*allow(?:\[([a-z0-9_,\- ]+)\])?")

#: Files whose audited wall-clock allow tags are sanctioned:
#: the one clock module of ``src/repro`` plus the calibration script.
#: A suppressed wall-clock read anywhere else raises
#: ``wall-clock-allowance``.
_CLOCK_EXEMPT_SUFFIXES: Tuple[str, ...] = (
    "repro/obs/clock.py",
    "tools/calibrate.py",
)

_MUTATING_METHODS = {"add", "append", "extend", "update", "pop", "popitem",
                     "clear", "remove", "discard", "insert", "setdefault",
                     "appendleft"}

_MUTABLE_CONSTRUCTORS = {"set", "dict", "list", "defaultdict", "deque",
                         "OrderedDict", "Counter"}


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressions: ``None`` = allow everything on that line."""
    result: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        tags = match.group(1)
        if tags is None:
            result[lineno] = None
        else:
            result[lineno] = {t.strip() for t in tags.split(",") if t.strip()}
    return result


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically set-valued: a set literal/comprehension or set() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _ModuleLinter(ast.NodeVisitor):
    """One file's worth of determinism findings."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._suppress = _suppressions(source)
        posix = Path(path).as_posix()
        self._clock_exempt = any(posix.endswith(suffix)
                                 for suffix in _CLOCK_EXEMPT_SUFFIXES)
        # Aliases under which hazard modules are imported in this file.
        self._random_aliases: Set[str] = set()
        self._clock_aliases: Dict[str, str] = {}   # local name -> module
        self._numpy_aliases: Set[str] = set()          # import numpy as np
        self._numpy_random_aliases: Set[str] = set()   # numpy.random as npr
        # Seeded numpy RNG constructors imported by name (still need the
        # zero-argument entropy-seeding check at their call sites);
        # local name -> original numpy.random attribute.
        self._numpy_seeded_names: Dict[str, str] = {}
        # Local names known to be set-valued (flow-insensitive, per scope
        # stack is overkill for this codebase's flat functions).
        self._set_names: Set[str] = set()
        # Module-level mutable containers: name -> definition line.
        self._module_state: Dict[str, int] = {}
        self._module_state_hits: Dict[str, int] = {}  # name -> mutation line

    # -- reporting ------------------------------------------------------
    def _report(self, tag: str, severity: Severity, message: str,
                node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        allowed = self._suppress.get(line, ...)
        if allowed is None or (allowed is not ... and tag in allowed):
            if tag == "wall-clock" and not self._clock_exempt:
                self.findings.append(Finding(
                    tag="wall-clock-allowance", severity=Severity.ERROR,
                    message=(
                        "suppressed wall-clock read outside the sanctioned "
                        "clock modules; route host timing through "
                        "repro.obs.clock instead of widening the "
                        "exemption"),
                    source="determinism-lint", path=self.path, line=line))
            return
        self.findings.append(Finding(
            tag=tag, severity=severity, message=message,
            source="determinism-lint", path=self.path, line=line))

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_aliases.add(local)
            if alias.name in ("time", "datetime"):
                self._clock_aliases[local] = alias.name
            if alias.name == "numpy":
                self._numpy_aliases.add(local)
            if alias.name == "numpy.random":
                if alias.asname:
                    self._numpy_random_aliases.add(alias.asname)
                else:
                    # `import numpy.random` binds `numpy`; draws go
                    # through the two-level `numpy.random.<draw>` path.
                    self._numpy_aliases.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_ALLOWED:
                    self._report(
                        "unseeded-random", Severity.ERROR,
                        f"`from random import {alias.name}` pulls in the "
                        f"process-global RNG; use a seeded random.Random "
                        f"instance",
                        node)
        if node.module in ("time", "datetime"):
            for alias in node.names:
                if (node.module, alias.name) in _CLOCK_CALLS or \
                        alias.name == "datetime":
                    local = alias.asname or alias.name
                    self._clock_aliases[local] = node.module
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_aliases.add(alias.asname
                                                   or alias.name)
        if node.module == "numpy.random":
            for alias in node.names:
                if alias.name in _NUMPY_SEEDED:
                    self._numpy_seeded_names[alias.asname
                                             or alias.name] = alias.name
                else:
                    self._report(
                        "unseeded-random", Severity.ERROR,
                        f"`from numpy.random import {alias.name}` pulls in "
                        f"numpy's process-global RNG; use an explicitly "
                        f"seeded numpy.random.default_rng(seed)",
                        node)
        self.generic_visit(node)

    # -- numpy.random ---------------------------------------------------
    def _check_numpy_random_call(self, node: ast.Call, display: str,
                                 attr: str) -> None:
        if attr not in _NUMPY_SEEDED:
            self._report(
                "unseeded-random", Severity.ERROR,
                f"draw from numpy's process-global RNG `{display}()`; "
                f"use an explicitly seeded numpy.random.Generator "
                f"(numpy.random.default_rng(seed))",
                node)
        elif not node.args and not node.keywords:
            self._report(
                "unseeded-random", Severity.ERROR,
                f"`{display}()` without an explicit seed draws OS "
                f"entropy; pass a seed so runs are reproducible",
                node)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if (base.id in self._random_aliases
                        and func.attr not in _RANDOM_ALLOWED):
                    self._report(
                        "unseeded-random", Severity.ERROR,
                        f"call to the process-global RNG "
                        f"`{base.id}.{func.attr}()`; draw from a seeded "
                        f"random.Random instance instead",
                        node)
                if base.id in self._numpy_random_aliases:
                    self._check_numpy_random_call(
                        node, f"{base.id}.{func.attr}", func.attr)
                module = self._clock_aliases.get(base.id)
                if module and (module, func.attr) in _CLOCK_CALLS:
                    self._report(
                        "wall-clock", Severity.ERROR,
                        f"wall-clock read `{base.id}.{func.attr}()`; "
                        f"simulated time must come from the cycle counter "
                        f"(host timing goes through repro.obs.clock)",
                        node)
            elif isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name):
                # datetime.datetime.now() style two-level access.
                module = self._clock_aliases.get(base.value.id)
                if module and (base.attr, func.attr) in _CLOCK_CALLS:
                    self._report(
                        "wall-clock", Severity.ERROR,
                        f"wall-clock read "
                        f"`{base.value.id}.{base.attr}.{func.attr}()`",
                        node)
                # np.random.<draw>() two-level access through a numpy
                # module alias.
                if (base.value.id in self._numpy_aliases
                        and base.attr == "random"):
                    self._check_numpy_random_call(
                        node, f"{base.value.id}.random.{func.attr}",
                        func.attr)
        elif isinstance(func, ast.Name) and \
                func.id in self._numpy_seeded_names:
            self._check_numpy_random_call(
                node, func.id, self._numpy_seeded_names[func.id])
        self.generic_visit(node)

    # -- set iteration --------------------------------------------------
    def _check_iterable(self, iterable: ast.AST) -> None:
        if _is_set_expr(iterable):
            self._report(
                "set-iteration", Severity.ERROR,
                "iteration over a set: order depends on PYTHONHASHSEED; "
                "wrap in sorted(...) for a stable order",
                iterable)
        elif isinstance(iterable, ast.Name) and \
                iterable.id in self._set_names:
            self._report(
                "set-iteration", Severity.ERROR,
                f"iteration over set-valued `{iterable.id}`: order depends "
                f"on PYTHONHASHSEED; wrap in sorted(...)",
                iterable)

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name) and _is_set_expr(node.value):
                self._set_names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None \
                and _is_set_expr(node.value):
            self._set_names.add(node.target.id)
        self.generic_visit(node)

    # -- module-level mutable state -------------------------------------
    def run(self, tree: ast.Module) -> List[Finding]:
        self._collect_module_state(tree)
        self.visit(tree)
        for name, def_line in sorted(self._module_state.items(),
                                     key=lambda kv: kv[1]):
            hit = self._module_state_hits.get(name)
            if hit is None:
                continue
            allowed = self._suppress.get(def_line, ...)
            if allowed is None or (allowed is not ... and
                                   "module-state" in allowed):
                continue
            self.findings.append(Finding(
                tag="module-state", severity=Severity.WARNING,
                message=(f"module-level mutable `{name}` is mutated at "
                         f"line {hit}; per-process state leaks across "
                         f"simulations in pooled workers"),
                source="determinism-lint", path=self.path, line=def_line))
        return self.findings

    def _collect_module_state(self, tree: ast.Module) -> None:
        for node in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not self._is_mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self._module_state[target.id] = node.lineno
        names = set(self._module_state)
        if not names:
            return
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    hit = self._mutation_of(inner, names)
                    if hit is not None:
                        name, line = hit
                        self._module_state_hits.setdefault(name, line)

    @staticmethod
    def _is_mutable_value(node: ast.expr) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                             ast.ListComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in _MUTABLE_CONSTRUCTORS
        return False

    @staticmethod
    def _mutation_of(node: ast.AST, names: Set[str]
                     ) -> Optional[Tuple[str, int]]:
        """(name, line) if ``node`` mutates one of ``names``."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id in names:
                    return target.value.id, node.lineno
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id in names:
                    return target.value.id, node.lineno
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id in names and \
                node.func.attr in _MUTATING_METHODS:
            return node.func.value.id, node.lineno
        return None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            tag="syntax-error", severity=Severity.ERROR,
            message=f"cannot parse: {exc.msg}",
            source="determinism-lint", path=path, line=exc.lineno or 0)]
    return _ModuleLinter(path, source).run(tree)


def lint_file(path: Path) -> List[Finding]:
    return lint_source(path.read_text(), str(path))


def default_lint_root() -> Path:
    """``src/repro`` of this checkout."""
    return Path(__file__).resolve().parents[1]


def default_lint_paths() -> List[Path]:
    """Roots the repo-wide gate scans: ``src/repro`` plus ``tools/``.

    ``tools/`` only joins when this checkout looks like the repo (the
    scripts live outside the package, so an installed copy has none);
    wall-clock use in the profiling scripts carries audited
    ``# lint: allow[...]`` tags.
    """
    roots = [default_lint_root()]
    repo_root = default_lint_root().parents[1]
    tools = repo_root / "tools"
    if tools.is_dir() and (repo_root / "pyproject.toml").exists():
        roots.append(tools)
    return roots


def iter_python_files(roots: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.py")))
    return files


def lint_paths(paths: Optional[Sequence[Path]] = None) -> FindingReport:
    """Lint every python file under the given roots.

    Defaults to :func:`default_lint_paths` — ``src/repro`` plus this
    checkout's ``tools/`` scripts.
    """
    roots = default_lint_paths() if not paths else list(paths)
    report = FindingReport()
    for file_path in iter_python_files(roots):
        report.extend(lint_file(file_path))
    return report
