"""List the ``src/`` functions only tier-1 reaches and those nothing reaches.

Runs full-mode ``pytest benchmarks``, the examples, the CLI, the docs recipes, a small
round of each ``perf/`` workload and tier-1 under ``sys.setprofile``, their output on
stderr; exits 1 if anything but a base-class hook is reached by nothing."""
import ast, json, os, subprocess, sys, tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
CHILD = """import hypothesis, json, runpy, sys
out, seen, sys.argv = sys.argv[1], set(), sys.argv[2:]
hypothesis.settings.register_profile("reach", deadline=None)  # the hook slows examples
hypothesis.settings.load_profile("reach")
sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(frame.f_code))
try:
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
finally:
    sys.setprofile(None)
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in seen}), open(out, "w"))
"""
SOURCES = {
    "tier-1": [["pytest"]],
    "benchmarks": [["pytest", "benchmarks"]],
    "examples": [[f"examples.{path.stem}"]
                 for path in sorted(SRC.parent.glob("examples/*.py"))],
    "cli": [["repro", cmd] for cmd in ("demo", "stories", "report", "workshop")],
    "docs": [["pytest", "tests/test_docs_recipes.py"]],
    "perf": [["perf.workloads", "--workload", w, "--seed", "12", "--scale", "0.05",
              "--trace", "1"] for w in ("sso_login", "onboard_wave", "access_mix",
                                        "all_tiers_mix", "directory_scale")],
}


def reached(argv):
    """``(file, first line)`` of every function one child calls."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "BENCH_QUICK": ""}  # full mode
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run([sys.executable, "-c", CHILD, out.name, *argv], cwd=SRC.parent,
                       env=env, stdout=sys.stderr, check=True)
        return {tuple(key) for key in json.load(out)}


def functions():
    """``(file, first line) -> (module, qualname, statements, hook?)``."""
    found, hooks = {}, set()

    def visit(node, path, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                hooks.update((ast.unparse(b).split(".")[-1], c.name) for c in child.body
                             if isinstance(c, DEFS) for b in child.bases)
                visit(child, path, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, DEFS):
                n, todo = -(ast.get_docstring(child, clean=False) is not None), [child]
                while todo:  # as test_architecture.py counts; a nested def is its own row
                    n += isinstance(todo[-1], ast.stmt)
                    todo += [c for c in ast.iter_child_nodes(todo.pop())
                             if not isinstance(c, DEFS)]
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[str(path), first] = (str(path.relative_to(SRC)),
                                           prefix + child.name, n, (cls, child.name))
                visit(child, path, f"{prefix}{child.name}.", None)
            else:
                visit(child, path, prefix, cls)
    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "", None)
    return {key: (*row[:3], row[3] in hooks) for key, row in found.items()}


if __name__ == "__main__":
    fns = functions()
    tier1, *others = (set().union(*map(reached, runs)) for runs in SOURCES.values())
    only = [fns[k] for k in fns if k in tier1.difference(*others)]
    nothing = [fns[k] for k in fns if k not in tier1.union(*others)]
    for title, rows in (("tier-1 only", only), ("reached by nothing", nothing)):
        print(f"{title}: {len(rows)} functions, {sum(r[2] for r in rows)} statements")
        for mod, name, n, hook in sorted(rows):
            print(f"  {mod:40} {name:50} {n:3}{'  base-class hook' if hook else ''}")
    sys.exit(any(not hook for *_, hook in nothing))
