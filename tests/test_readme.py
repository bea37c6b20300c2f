"""The README's library quick start runs as written, and its shipped-config
block lists every experiment config, so an API change or a new config
cannot leave it stale."""

import importlib
import re
from fnmatch import fnmatch
from pathlib import Path

import splitgame

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CI = ROOT / ".github" / "workflows" / "tier1.yml"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "expected one python block, the quick start"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})


def test_shipped_config_block_lists_every_config():
    """Each experiment config in configs/ (every *.json but the payoff_*
    tensor files) appears exactly once in the README's shipped-config block,
    run by the subcommand that CI's shipped-configs case maps it to."""
    block = re.search(r"Shipped configs live in `configs/`:\n\n```sh\n(.*?)```",
                      README.read_text(), re.S)
    assert block, "expected the shipped-config block"
    listed = re.findall(r"^splitgame +(\S+) +--config +configs/(\S+)", block[1], re.M)
    cases = re.findall(r"^ +([\w.*]+)\) sub=([\w-]+) ;;$", CI.read_text(), re.M)
    assert cases, "expected CI's shipped-configs case"

    def subcommand(name):
        return next(sub for pattern, sub in cases if fnmatch(name, pattern))

    configs = sorted(p.name for p in (ROOT / "configs").glob("*.json")
                     if not p.name.startswith("payoff_"))
    assert sorted(name for _, name in listed) == configs
    assert {name: sub for sub, name in listed} == {name: subcommand(name) for name in configs}


def test_named_constants_exist():
    """Every backticked `Name.UPPER_CASE` in the README is a constant of a
    splitgame module or class, so a constant that goes cannot stay documented."""
    named = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", README.read_text())
    assert named, "expected the README to name constants"
    for owner, constant in named:
        scope = getattr(splitgame, owner, None) or importlib.import_module(f"splitgame.{owner}")
        assert hasattr(scope, constant), f"{owner}.{constant} is not in splitgame"
