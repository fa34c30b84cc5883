"""Every public name of the package resolves, and README's library sample
runs: a deletion or rename that leaves an export or the sample behind
fails here, not at a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import marcsim


def test_public_names_resolve():
    for info in pkgutil.iter_modules(marcsim.__path__):
        module = importlib.import_module(f"marcsim.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (info.name, missing)
    imports = [node for node in ast.parse(Path(marcsim.__file__).read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"marcsim.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert hasattr(marcsim, alias.asname or alias.name), alias.name


def test_readme_library_sample_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    sample = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "import marcsim" in sample
    exec(compile(sample, "README.md", "exec"), {})
