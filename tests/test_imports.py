"""Import guard: a process loads only the part of the program it uses.

Every package ``__init__`` declares its public names through
:func:`repro.lazy_exports`, so importing one submodule does not import
the whole program, and the heavy standard-library modules (asyncio,
multiprocessing) are imported where they are used.  Each check runs in
a fresh interpreter, since this process has imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
REPRO = SRC / "repro"

#: CONTRIBUTING's dependency order, bottom-up: a package may import
#: its own layer and the layers below it, never one above.
LAYERS = (
    ("util",),
    ("metrics", "observe"),
    ("topology", "comm"),
    ("exec", "treematch", "simulate"),
    ("orwl", "perf", "stats"),
    ("placement",),
    ("tasks",),
    ("kernels",),
    ("experiments",),
    ("core", "tools"),
)
LAYER_OF = {pkg: k for k, layer in enumerate(LAYERS) for pkg in layer}
PACKAGES = sorted(p.name for p in REPRO.iterdir() if (p / "__init__.py").exists())


def run_probe(code: str) -> object:
    """Run *code* in a fresh interpreter; it prints one JSON value last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """Every module a fresh interpreter has loaded after running *code*."""
    return run_probe(code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))")


def repro_modules(modules: list[str]) -> set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def submodules(pkg: str) -> list[str]:
    return sorted(
        f"repro.{pkg}.{p.stem}"
        for p in (REPRO / pkg).glob("*.py")
        if p.stem not in ("__init__", "__main__")
    )


def declared_exports(pkg: str) -> dict[str, tuple[str, str | None]]:
    """``public name -> (submodule, attribute or None)`` as the package's
    ``lazy_exports(...)`` call declares it (read from its source)."""
    init = REPRO / pkg / "__init__.py" if pkg else REPRO / "__init__.py"
    tree = ast.parse(init.read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            names = ast.literal_eval(node.args[1])
            subs = ast.literal_eval(
                next((k.value for k in node.keywords if k.arg == "submodules"), ast.List([]))
            )
            out: dict[str, tuple[str, str | None]] = {}
            for sub, entries in names.items():
                for attr in entries:
                    out[attr] = (sub, attr)
            for sub in subs:
                out[sub] = (sub, None)
            return out
    return {}


def test_import_repro_loads_only_repro():
    assert repro_modules(loaded_after("import repro")) == {"repro"}


@pytest.mark.parametrize("pkg", PACKAGES)
def test_importing_a_package_loads_only_what_it_binds_at_once(pkg):
    # Only a name that shares its name with a submodule is bound at
    # once (see repro.lazy_exports); what that submodule imports is all
    # a package import may load.
    declared = declared_exports(pkg)
    eager = sorted(
        f"repro.{pkg}.{sub}"
        for name, (sub, attr) in declared.items()
        if attr is not None and name in {s for s, _ in declared.values()}
    )
    allowed = {"repro", f"repro.{pkg}"}
    if eager:
        allowed |= repro_modules(loaded_after("\n".join(f"import {m}" for m in eager)))
    assert repro_modules(loaded_after(f"import repro.{pkg}")) <= allowed


@pytest.mark.parametrize("pkg", PACKAGES)
def test_package_imports_no_higher_layer(pkg):
    code = "\n".join(f"import {m}" for m in submodules(pkg))
    higher = sorted(
        m
        for m in repro_modules(loaded_after(code))
        if m.count(".") >= 1 and LAYER_OF[m.split(".")[1]] > LAYER_OF[pkg]
    )
    assert higher == [], f"importing repro.{pkg} loads higher layers: {higher}"


def test_every_package_has_a_layer():
    assert set(PACKAGES) == set(LAYER_OF)


def test_launch_path_skips_heavy_imports():
    # The point runners and the placement service are what a benchmark
    # or worker process imports; none of them needs asyncio, the process
    # pool, TLS, networkx (the bisection ablation's) or the sweep and
    # statistics layer.
    loaded = set(loaded_after(
        "import repro.experiments.fig1, repro.experiments.dag, "
        "repro.placement.service, repro.tasks.run"
    ))
    heavy = {"asyncio", "ssl", "multiprocessing", "concurrent.futures", "networkx"}
    assert sorted(heavy & loaded) == []
    sweep = sorted(m for m in loaded if m.startswith(("repro.stats", "repro.exec.runner")))
    assert sweep == []


def test_every_export_resolves_to_its_defining_object():
    # Import every submodule first: a submodule imported before its
    # package's same-named export is read must not shadow the export.
    exports = {
        f"repro.{pkg}" if pkg else "repro": declared_exports(pkg)
        for pkg in [""] + PACKAGES
    }
    every = [m for pkg in PACKAGES for m in submodules(pkg)]
    code = "\n".join(f"import {m}" for m in every) + f"""
import importlib, json
problems = []
for pkg, declared in {exports!r}.items():
    module = importlib.import_module(pkg)
    for name in getattr(module, "__all__", ()):
        ns = {{}}
        exec(f"from {{pkg}} import {{name}} as value", ns)
        if name not in dir(module):
            problems.append(f"{{pkg}}.{{name}} not in dir()")
        if name not in declared:
            continue
        sub, attr = declared[name]
        source = importlib.import_module(f"{{pkg}}.{{sub}}")
        expected = source if attr is None else getattr(source, attr)
        if ns["value"] is not expected:
            problems.append(f"{{pkg}}.{{name}} is {{ns['value']!r}}")
    missing = sorted(set(declared) - set(getattr(module, "__all__", ())))
    problems += [f"{{pkg}}.{{name}} declared but not in __all__" for name in missing]
print(json.dumps(problems))
"""
    assert run_probe(code) == []


def test_restrict_stays_the_function_after_its_submodule_is_imported():
    code = """
import json
import repro.topology.restrict
import repro.treematch.remap
import repro.topology as topology
from repro.topology import restrict
print(json.dumps([type(restrict).__name__, topology.restrict is restrict]))
"""
    assert run_probe(code) == ["function", True]


def test_library_imports_names_from_their_defining_submodule():
    # CPython does not specialise attribute loads on a module that
    # defines __getattr__, so library code binds names from the module
    # that defines them; a package is imported only for its submodules.
    offenders = []
    for path in sorted(REPRO.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            parts = node.module.split(".")
            if parts[0] != "repro" or len(parts) > 2:
                continue
            pkg_dir = REPRO.joinpath(*parts[1:])
            for alias in node.names:
                if node.module == "repro" and alias.name == "lazy_exports":
                    continue
                is_sub = (pkg_dir / f"{alias.name}.py").exists() or (
                    pkg_dir / alias.name / "__init__.py"
                ).exists()
                if not is_sub:
                    offenders.append(f"{path.relative_to(SRC)}: {node.module}.{alias.name}")
    assert offenders == []
