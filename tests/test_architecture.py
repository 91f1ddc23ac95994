"""Structure ratchet: the builder stays readable, the tiers stay separate.

``build_isambard`` is the Fig. 1 base plus one ``install`` call per
enabled tier; each tier's wiring lives in its own package's
``install`` module and reads its collaborators off the deployment
handle.  These checks keep it that way without running anything: they
parse the sources.  If one fails, move the new wiring into the tier it
belongs to (docs/extending.md, "Add or remove a tier") rather than
raising the limit.

The size ratchets at the bottom only ever go down: the number of values
a caller of ``build_isambard`` can set (read off its annotations, the one
check that imports rather than parses), the values among them that only
tests set, the statement count of ``src/``,
the concepts that have exactly one implementation, the serving path's
three mechanisms (serve wrapper, attempt bound, retry loop), each of
which is written once, the one place a trace header is parsed, and the
one write path of journaled state (``Durable.commit``).
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import typing
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEPLOYMENT = SRC / "repro" / "core" / "deployment.py"

MAX_BUILDER_LINES = 450
MAX_TIER_CONDITIONALS = 20
# lower these when a change lowers the count; never raise them
MAX_SETTABLE_VALUES = 51
MAX_SRC_STATEMENTS = 10_828
# concepts that once had two implementations: the loser's name stays gone
MERGED_AWAY = {"AccountRegistry", "EduGain", "BoundedSpanStore",
               "LatencyTracker", "RoundRobinPolicy", "ConsistentHashPolicy",
               "LeastOutstandingPolicy", "BoundedLoadRing"}

# a conditional is tier-conditional when its test names a tier's flag,
# config or runtime object
TIER_WORDS = ("resilien", "overload", "durab", "failover", "telemetry", "tele",
              "scale", "region", "tail", "authz", "pipeline", "directory",
              "runtime", "store", "standby", "pool", "bus", "router")

TIER_PACKAGES = {
    "resilience": "repro.resilience",
    "scale": "repro.scale",
    "region": "repro.region",
    "authz": "repro.authz",
    "directory": "repro.federation.directory",
}
INSTALL_MODULES = {f"{pkg}.install" for pkg in TIER_PACKAGES.values()}
BASE_PACKAGES = ("net", "oidc", "broker", "portal", "sshca", "tunnels",
                 "cluster", "siem", "policy")


def _builder() -> ast.FunctionDef:
    tree = ast.parse(DEPLOYMENT.read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "build_isambard")


def test_builder_body_fits_on_a_few_screens():
    fn = _builder()
    first = fn.body[1] if ast.get_docstring(fn) is not None else fn.body[0]
    assert fn.end_lineno - first.lineno + 1 <= MAX_BUILDER_LINES


def test_builder_branches_on_a_tier_at_most_a_handful_of_times():
    conditionals = []
    for node in ast.walk(_builder()):
        if isinstance(node, (ast.If, ast.IfExp)):
            words = {n.id for n in ast.walk(node.test)
                     if isinstance(n, ast.Name)}
            words |= {n.attr for n in ast.walk(node.test)
                      if isinstance(n, ast.Attribute)}
            if any(t in w.lower() for w in words for t in TIER_WORDS):
                conditionals.append(node.lineno)
    assert len(conditionals) <= MAX_TIER_CONDITIONALS, conditionals


def _imports(path: Path) -> set:
    """Every module ``path`` imports, absolute; ``from p import a`` counts
    as both ``p`` and ``p.a`` (``a`` may be a submodule)."""
    package = path.relative_to(SRC).parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) - node.level + 1]
                        if node.level else ())
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def _package_files(dotted: str):
    return sorted((SRC / Path(*dotted.split("."))).rglob("*.py"))


@pytest.mark.parametrize("tier", sorted(TIER_PACKAGES))
def test_tier_reaches_neither_the_builder_nor_another_tiers_install(tier):
    own = TIER_PACKAGES[tier]
    for path in _package_files(own):
        for module in _imports(path):
            assert not module.startswith("repro.core"), (path, module)
            if module in INSTALL_MODULES:
                assert module == f"{own}.install", (path, module)


@pytest.mark.parametrize("package", BASE_PACKAGES)
def test_base_package_imports_no_tier_install(package):
    for path in _package_files(f"repro.{package}"):
        assert not _imports(path) & INSTALL_MODULES, path


def test_only_scale_and_region_import_the_scale_tier():
    """The scale tier is opt-in; what every build runs (the account
    registry's ring included) must not need it.  The region tier builds
    on it and the builder installs it."""
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[1] in ("scale", "region", "core"):
            continue
        for module in _imports(path):
            assert not module.startswith("repro.scale"), (path, module)


def _src_trees():
    return [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]


def _configs():
    """Every config dataclass ``build_isambard``'s annotations reach
    (``OverloadConfig.broker`` is an ``AdmissionPolicy``, so that counts
    too)."""
    from repro.core import build_isambard

    hints = typing.get_type_hints(build_isambard)
    del hints["return"]
    configs, todo = set(), list(hints.values())
    while todo:
        hint = todo.pop()
        todo.extend(typing.get_args(hint))
        if dataclasses.is_dataclass(hint) and hint not in configs:
            configs.add(hint)
            todo.extend(typing.get_type_hints(hint).values())
    return configs


def test_settable_values_only_fall():
    """``build_isambard``'s own parameters plus every field of every
    config it reaches.  One value in use is a constant, not a knob."""
    from repro.core import build_isambard

    configs = _configs()
    settable = len(inspect.signature(build_isambard).parameters) + sum(
        len(dataclasses.fields(cfg)) for cfg in configs)
    assert settable <= MAX_SETTABLE_VALUES, sorted(
        cfg.__name__ for cfg in configs)


def test_every_settable_value_is_read():
    """A config field that nothing in ``src/`` reads as an attribute
    sets nothing: a caller who passes it believes a lie."""
    read = {node.attr for tree in _src_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cfg.__name__}.{f.name}" for cfg in _configs()
                    for f in dataclasses.fields(cfg) if f.name not in read)
    assert not unread


ROOT = SRC.parent
# where a value counts as set: the library and everything that runs it
CALLER_DIRS = ("src", "benchmarks", "examples", "perf")
# every settable value only tests set, and why it is still settable
# (docs/extending.md, "Settable values only tests set").  The list only
# shrinks: a new test-only knob fails the check below, and so does an
# entry that gains a caller or disappears.
TEST_ONLY = {
    "telemetry": "keep: ROADMAP items 5 and 9 measure telemetry's cost "
                 "with it off (the fingerprint's no-telemetry row)",
    "TailConfig.timeout_min": "delete next: 1 id (test_invalid_knobs_rejected[kwargs0])",
    "TailConfig.timeout_max": "delete next: 1 id (test_invalid_knobs_rejected[kwargs1])",
    "RegionConfig.names": "delete next: TestRegionConfig's four rejection "
                          "tests, and the class with them",
    "RegionConfig.replication_delay": "delete next: with RegionConfig",
    "RegionConfig.staleness_bound": "delete next: with RegionConfig",
    "RegionConfig.heartbeat_interval": "delete next: with RegionConfig",
    "RegionConfig.client_regions": "delete next: with RegionConfig",
}


def _called(func: ast.expr) -> str:
    return getattr(func, "id", None) or getattr(func, "attr", "")


def _keywords_set():
    """``{callee: keywords}`` for every call under ``CALLER_DIRS``; outside
    ``src/`` the keywords of ``dict(...)`` and the string keys of dict
    literals count as ``build_isambard``'s (``perf/workloads.py`` builds
    its flags as ``dict(...)`` and passes ``**flags``)."""
    found: dict = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                callee, names = None, ()
                if isinstance(node, ast.Call):
                    callee = _called(node.func)
                    names = [kw.arg for kw in node.keywords if kw.arg]
                    if callee == "dict" and top != "src":
                        callee = "build_isambard"
                elif isinstance(node, ast.Dict) and top != "src":
                    callee = "build_isambard"
                    names = [k.value for k in node.keys
                             if isinstance(k, ast.Constant)
                             and isinstance(k.value, str)]
                if callee:
                    found.setdefault(callee, set()).update(names)
    return found


def test_settable_values_only_tests_set_are_listed():
    """A value no caller outside the tests sets is a constant, unless
    ``TEST_ONLY`` says why not.  A ``build_isambard`` parameter is set
    when one is passed to it as a keyword; a config field when it is a
    keyword to its class or to ``replace(...)``."""
    from repro.core import build_isambard

    found = _keywords_set()
    unset = {name for name in inspect.signature(build_isambard).parameters
             if name not in found.get("build_isambard", ())}
    for cfg in _configs():
        passed = found.get(cfg.__name__, set()) | found.get("replace", set())
        unset |= {f"{cfg.__name__}.{f.name}" for f in dataclasses.fields(cfg)
                  if f.name not in passed}
    assert unset == set(TEST_ONLY), (
        f"unlisted: {sorted(unset - set(TEST_ONLY))}; "
        f"listed but set or gone: {sorted(set(TEST_ONLY) - unset)}")


def test_src_statement_count_only_falls():
    """Every ``ast.stmt`` under ``src/``, docstrings excluded."""
    statements = 0
    for tree in _src_trees():
        for node in ast.walk(tree):
            statements += isinstance(node, ast.stmt)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                statements -= ast.get_docstring(node, clean=False) is not None
    assert statements <= MAX_SRC_STATEMENTS


def test_src_leaves_the_collector_alone():
    """What the cyclic collector costs is answered by data layout (the
    directory stores flat tuples of atoms), never by switching it off
    or retuning it inside the caller's process: ``src/`` does not so
    much as import ``gc``."""
    for path in sorted(SRC.rglob("*.py")):
        assert "gc" not in _imports(path), path


def test_recognition_never_leaves_the_issuer():
    """Which tokens an issuer signed (``_minted``) and the question it
    answers from that (``recognises``) are named by the two issuing
    classes and the broker that joins them — nowhere a relying party, a
    shared key object or a journal could reach; and only they ever vouch
    for a signature (``vouched=`` anything but the validator's own
    pass-through)."""
    owners = {"repro/oidc/provider.py", "repro/broker/tokens.py",
              "repro/broker/broker.py"}
    named, vouching = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("_minted", "recognises", "_recognises"):
                named.add(rel)
            if isinstance(node, ast.Call) and any(
                    kw.arg == "vouched" for kw in node.keywords):
                vouching.add(rel)
    assert named == owners
    assert vouching == {"repro/oidc/provider.py", "repro/broker/broker.py",
                        "repro/crypto/jwt.py"}


def test_the_trace_header_is_read_only_at_the_process_edge():
    """Between the hops of one process the trace position is
    ``HttpRequest.trace``, an object.  The header codec's decoding half
    (``TraceContext.extract``/``from_traceparent``) is named by the codec
    itself and by ``Service.call``, where a request from outside arrives
    — a hop that parsed would be paying per message again."""
    naming = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("extract", "from_traceparent")
                    and getattr(node.value, "id", "") in ("TraceContext", "cls")):
                naming.add(path.relative_to(SRC).as_posix())
    assert naming == {"repro/telemetry/context.py", "repro/net/http.py"}


def test_one_implementation_per_concept():
    for tree in _src_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            assert node.name not in MERGED_AWAY, node.name
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                     for b in node.bases}
            assert "SpanStore" not in bases, f"{node.name} subclasses SpanStore"


def test_serving_path_is_written_once():
    """One serve wrapper (the only ``_serving.append``), one retry loop
    (``Resilience.call`` — no free-function twin), and one derivation of
    the attempt bound (``hedge_delay`` / ``attempt_timeout`` are defined
    in ``resilience/tail.py`` and nowhere else, under any spelling)."""
    pushes, bound_owners = 0, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "call_with_resilience", path
                if node.name.lstrip("_") in ("hedge_delay", "attempt_timeout"):
                    bound_owners.add(path.relative_to(SRC).as_posix())
            elif (isinstance(node, ast.Attribute) and node.attr == "append"
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "_serving"):
                pushes += 1
    assert pushes == 1
    assert bound_owners == {"repro/resilience/tail.py"}


def _kinds_handled(fn: ast.FunctionDef) -> set:
    """The kind literals an ``apply_entry`` compares ``kind`` against."""
    kinds = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Compare)
                and getattr(node.left, "id", None) == "kind"):
            for comparator in node.comparators:
                kinds.update(c.value for c in ast.walk(comparator)
                             if isinstance(c, ast.Constant)
                             and isinstance(c.value, str))
    return kinds


def test_durable_state_is_written_once():
    """Journaled state has one write path, ``Durable.commit``: journal,
    then ``apply_entry`` — the code replay runs.  Every kind an
    ``apply_entry`` handles is committed somewhere (no replay-only
    branch, no live twin beside it), and the only appends outside
    ``commit`` are the audit log's own (``AuditLog.emit`` writes its
    record as text; see ``Durable``'s docstring)."""
    handled, committed, appenders = set(), set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "apply_entry":
                    handled |= _kinds_handled(fn)
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    called = _called(node.func)
                    if called == "_jpublish":
                        appenders.add(f"{cls.name}.{fn.name}")
                    if (called in ("commit", "_jpublish") and node.args
                            and isinstance(node.args[0], ast.Constant)):
                        committed.add(node.args[0].value)
    assert appenders == {"Durable.commit", "AuditLog.emit"}
    assert handled - committed == set()
    assert "audit.emit" in committed and len(handled) > 40
