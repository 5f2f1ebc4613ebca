"""The package namespace is the library contract: configurations, instances,
runs, records and the parameter-space export.  Every other name is imported
from its own module."""

import ast
import importlib.util
import re
from pathlib import Path

import hybridopt

ROOT = Path(__file__).resolve().parents[1]

CONTRACT = {
    "AlgorithmConfig", "Bounds", "CmaParams", "DeParams", "ExecutionConfig",
    "LsParams", "ObjectiveInstance", "PsoParams",
    "RunRecord", "RunResult", "ValidationReport",
    "cap_reported_value", "default_config", "export_parameter_space",
    "load_rotation_file", "load_shift_file", "make_instance",
    "parse_parameter_file", "run", "validate",
}


def _is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"hybridopt.{name}") is not None


def test_package_exports_exactly_the_contract():
    assert len(hybridopt.__all__) == len(CONTRACT) == 20
    assert set(hybridopt.__all__) == CONTRACT
    tree = ast.parse(Path(hybridopt.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported == CONTRACT
    public = {name for name in dir(hybridopt)
              if not name.startswith("__") and not _is_submodule(name)}
    assert public == CONTRACT


def _hybridopt_imports(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) of every ``from hybridopt... import name`` in tree."""
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "hybridopt" for alias in node.names]


def test_readme_python_quick_start_runs_on_the_contract(capsys):
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.DOTALL).group(1)
    imports = _hybridopt_imports(ast.parse(block))
    assert imports and all(module == "hybridopt" and name in hybridopt.__all__
                           for module, name in imports), imports
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_benchmark_and_tools_take_only_exported_names():
    """Every name bench/ and tools/ take from the package itself, by
    ``from hybridopt import`` or as ``hybridopt.<name>``, is a submodule or
    exported, so trimming ``__all__`` cannot break them unseen."""
    used = {}
    for path in sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("tools/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {name for module, name in _hybridopt_imports(tree) if module == "hybridopt"}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "hybridopt" and not node.attr.startswith("__")}
        for name in names:
            used.setdefault(name, []).append(path.relative_to(ROOT).as_posix())
    assert {"make_instance", "run", "validate"} <= used.keys()
    missing = {name: paths for name, paths in used.items()
               if not _is_submodule(name) and name not in hybridopt.__all__}
    assert not missing, missing
