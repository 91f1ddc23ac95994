"""List the functions and statements in ``src/`` only tier-1 reaches, and those nothing reaches."""
import ast, json, os, subprocess, sys, tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from pathlib import Path

SRC, DEFS = Path(__file__).resolve().parents[1] / "src", (ast.FunctionDef, ast.AsyncFunctionDef)
CHILD = """import atexit, hypothesis, json, runpy, sys
out, src, sys.argv, todo, hooks = sys.argv[1], sys.argv[2], sys.argv[3:], {}, {}
hypothesis.settings.register_profile("reach", deadline=None, derandomize=True)
hypothesis.settings.load_profile("reach")  # a slow hook; the same draws every run
lines = lambda code: {n for *_, n in code.co_lines() if n} - {code.co_firstlineno}
atexit.register(lambda: json.dump(sorted({(c.co_filename, n) for c, left in list(todo.items())
    for n in {-c.co_firstlineno, *lines(c) - left}}), open(out, "w")))
hook = lambda discard: (line := lambda frame, event, arg: discard(frame.f_lineno) or line)
def call(frame, event, arg):  # a call is kept as its first line, negated: a docstring-only
    code = frame.f_code  # function runs no line; src/ code is traced until each line has run
    if code not in todo and code.co_filename.startswith(src):
        hooks[code] = hook(todo.setdefault(code, lines(code)).discard)
    return hooks[code] if todo.get(code) else None
sys.settrace(call)
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""
SOURCES = {"tier-1": [["pytest"]], "benchmarks": [["pytest", "benchmarks"]],  # full mode
           "examples": [[f"examples.{p.stem}"] for p in sorted(SRC.parent.glob("examples/*.py"))],
           "cli": [["repro", cmd] for cmd in ("demo", "stories", "report", "workshop")],
           "docs": [["pytest", "tests/test_docs_recipes.py"]],
           "perf": [["perf.workloads", "--workload", w, "--seed", "12", "--scale", "0.05",
                     "--trace", "1"] for w in ("sso_login", "onboard_wave", "access_mix",
                                               "all_tiers_mix", "directory_scale")]}


def reached(argv):  # (file, line) per src/ line one child runs, (file, -line) per call
    env = {**os.environ, "PYTHONPATH": str(SRC), "BENCH_QUICK": ""}
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run([sys.executable, "-c", CHILD, out.name, f"{SRC}{os.sep}", *argv],
                       cwd=SRC.parent, env=env, stdout=sys.stderr, check=True)
        return {tuple(key) for key in json.load(out)}


def functions():
    """Each def's (module, qualname, hook?, statements test_architecture.py counts less the
    def and nested defs) by (file, first line); each line's innermost statement."""
    fns, hooks, owner = {}, set(), {}
    def visit(node, path, pre, body, doc=None):
        for kid in ast.iter_child_nodes(node):
            if isinstance(kid, DEFS):
                key = str(path), min(d.lineno for d in [kid, *kid.decorator_list])
                fns[key] = (str(path.relative_to(SRC)), pre + kid.name, [])
                visit(kid, path, f"{pre}{kid.name}.", fns[key][2],
                      ast.get_docstring(kid, clean=False) is not None and kid.body[0])
                continue
            body += [kid] if isinstance(kid, ast.stmt) and kid is not doc else []
            hooks.update((ast.unparse(b).split(".")[-1], c.name) for b in getattr(
                kid, "bases", ()) for c in kid.body if isinstance(c, DEFS))
            visit(kid, path, f"{pre}{kid.name}." if isinstance(kid, ast.ClassDef) else pre, body)
    for path in sorted(SRC.rglob("*.py")):
        visit(tree := ast.parse(path.read_text()), path, "", [])
        owner.update(((str(path), n), s) for s in ast.walk(tree)  # outside in
                     if isinstance(s, ast.stmt) for n in range(s.lineno, s.end_lineno + 1))
    return {k: (m, q, tuple(q.split(".")[-2:]) in hooks, b) for k, (m, q, b) in fns.items()}, owner


if __name__ == "__main__":
    (fns, owner), pool = functions(), ThreadPoolExecutor(2)  # tier-1 and benchmarks first
    tier1, *others = pool.map(reached, [argv for runs in SOURCES.values() for argv in runs])
    other, calls = set().union(*others), lambda seen: {k for k in fns if (k[0], -k[1]) in seen}
    only, nothing = calls(tier1) - calls(other), fns.keys() - calls(tier1) - calls(other)
    for title, keys in (("tier-1 only", only), ("reached by nothing", nothing)):
        print(f"{title}: {len(keys)} functions, {sum(len(fns[k][3]) + 1 for k in keys)} stmts")
        for mod, name, hook, body in sorted((fns[k] for k in keys), key=lambda r: r[:2]):
            print(f"  {mod:40} {name:50} {1 + len(body):3}{'  base-class hook' * hook}")
    ran, ran_else = ({owner[n] for n in seen if n in owner} for seen in (tier1, other))
    print("tier-1-only statements where the others call, and their runs of 3 or more:")
    for (path, first), (mod, name, _, body) in sorted(fns.items()):
        runs = [list(g) for t1, g in groupby(body, lambda s: s in ran and s not in ran_else) if t1]
        if (path, -first) in other and runs:
            print(f"  {mod:40} {name:50} {sum(map(len, runs)):3}  " + " ".join(
                f"L{r[0].lineno}-{r[-1].lineno}" for r in runs if len(r) > 2))
    sys.exit(any(not fns[key][2] for key in nothing))
