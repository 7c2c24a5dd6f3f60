"""The README's module map against the package it describes."""

import importlib
import re
from pathlib import Path

import routedesign

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _module_map() -> dict[str, str]:
    """Each bullet of the README's module map, by the module it names first."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nModule map", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for chunk in section.split("\n- ")[1:]:
        name = re.match(r"`(\w+)`:", chunk)
        assert name, f"module map bullet without a leading `module`: {chunk[:40]!r}"
        bullets[name.group(1)] = " ".join(chunk.split())
    return bullets


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_readme_module_map_names_every_module_and_only_real_names():
    modules = {p.stem for p in (ROOT / "src" / "routedesign").glob("*.py")} - {"__init__"}
    bullets = _module_map()
    assert set(bullets) == modules
    for name, text in bullets.items():
        module = importlib.import_module(f"routedesign.{name}")
        for span in re.findall(r"`([^`]+)`", text)[1:]:
            if IDENTIFIER.fullmatch(span):
                assert _resolves(routedesign, span) or _resolves(module, span), (
                    f"README module map, `{name}`: `{span}` is not an attribute of "
                    f"routedesign or routedesign.{name}"
                )
