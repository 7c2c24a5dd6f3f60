"""The README's module map, and the package's namespace, against the package."""

import importlib
import json
import re
import subprocess
import sys
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


def _fresh(code: str, *args: str):
    """The JSON value on the last line that code prints in a fresh interpreter,
    since this one has long imported every module of the package."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


EXPORTS_PROBE = """
import json, sys

def package():
    # the package as a fresh import finds it, with none of its modules loaded
    for name in [m for m in sys.modules if m.split(".")[0] == "routedesign"]:
        del sys.modules[name]
    import routedesign
    return routedesign

submodules = json.loads(sys.argv[1])
names = package().__all__
namespace = {}
exec("from routedesign import *", namespace)
print(json.dumps({
    "all": names,
    "unresolved": [n for n in names + submodules if not hasattr(package(), n)],
    "unknown_resolves": hasattr(package(), "no_such_name"),
    "not_in_dir": sorted(set(names + submodules) - set(dir(package()))),
    "not_bound": sorted(set(names) - set(namespace)),
}))
"""


def test_package_exports_are_unique_and_resolve():
    # each name is looked up on a fresh import of the package, so that none
    # resolves only because an earlier lookup loaded the module behind it;
    # cli, the command-line entry point, is no package attribute
    modules = sorted(p.stem for p in (ROOT / "src" / "routedesign").glob("*.py"))
    report = _fresh(EXPORTS_PROBE, json.dumps([m for m in modules if m not in ("__init__", "cli")]))
    names = report["all"]
    assert len(names) == len(set(names)), "routedesign.__all__ lists a name twice"
    assert report["unresolved"] == [], "routedesign lacks these exported or submodule names"
    assert not report["unknown_resolves"]
    assert report["not_in_dir"] == []
    assert report["not_bound"] == [], "from routedesign import * leaves these unbound"


IMPORT_PROBE = """
import json, sys
import routedesign

loaded = []

def record():
    modules = [m for m in sys.modules if m.split(".")[0] == "routedesign"]
    loaded.append(sorted(modules + [m for m in ("orjson", "scipy") if m in sys.modules]))

record()
routedesign.build_scenario("two_player_3x3")
record()
routedesign.load_game_file(sys.argv[1])
record()
routedesign.design_loop
record()
print(json.dumps(loaded))
"""


def test_import_loads_only_the_modules_its_caller_touches(tmp_path):
    scenario = routedesign.build_scenario("two_player_3x3")
    path = tmp_path / "game.json"
    routedesign.write_game_file(path, scenario.game, scenario.desired_node_paths)
    package, built, read, designing = _fresh(IMPORT_PROBE, str(path))
    assert package == ["routedesign"]
    game_modules = [f"routedesign.{m}" for m in ("errors", "game", "graph", "scenarios")]
    assert built == ["routedesign", *game_modules]
    assert read == ["orjson", "routedesign", *game_modules]
    assert "routedesign.design" in designing and "scipy" not in designing
