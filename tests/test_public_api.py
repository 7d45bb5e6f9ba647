"""README's "Public API" list is the package's exports, name for name."""

import re
import types
from pathlib import Path

import dpdsolve

README = Path(__file__).resolve().parents[1] / "README.md"


def _listed_names() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- .*?(?=^- |\Z)", section, flags=re.M | re.S)
    return {name for item in items for name in re.findall(r"`(\w+)`", item)}


def test_the_readme_lists_exactly_the_package_exports():
    exported = {name for name, value in vars(dpdsolve).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    listed = _listed_names()
    assert listed, "README has no Public API list"
    assert listed == exported, (sorted(listed - exported), sorted(exported - listed))


def test_every_listed_name_imports():
    namespace = {}
    names = sorted(_listed_names())
    exec(f"from dpdsolve import {', '.join(names)}", namespace)
    assert all(name in namespace for name in names)
