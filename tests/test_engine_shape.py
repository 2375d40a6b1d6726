"""The engine's shape: one core, stages instead of ``None`` checks.

An ``ast`` walk, in the manner of ``test_knob_budget.py``, over the two
files that run every gossip message: ``core/engine.py`` and
``core/handler.py``.

* **No subsystem presence tests outside constructors.**  Health, the
  durability journal, overload, telemetry, the view provider and the
  fanout ceiling are stages with shared no-op defaults, so no method asks
  whether one is there: no ``is None`` / ``is not None`` on a subsystem
  attribute (or on a local bound from one), and no truthiness test of
  one.  A constructor may still turn an absent argument into its no-op.
* **Style branches live in the style table.**  ``GossipStyle`` members
  appear only in the ``STYLE_TABLE`` assignment; everything else reads
  the row of the current style.
"""

import ast
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
FILES = [CORE / "engine.py", CORE / "handler.py"]

#: Attributes that name an optional subsystem, past and present.
SUBSYSTEMS = {
    "health", "log", "durability", "journal", "overload", "telemetry",
    "view_provider", "fanout_ceiling", "_shed_latch", "_pressure_provider",
    "_ingest_latch",
}
CONSTRUCTORS = {"__init__"}


def _subsystem_attribute(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in SUBSYSTEMS
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def presence_tests(tree: ast.Module):
    """``(function, line)`` of every subsystem presence test outside a
    constructor."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if function.name in CONSTRUCTORS:
            continue
        bound = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and _subsystem_attribute(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }

        def names_subsystem(node) -> bool:
            return _subsystem_attribute(node) or (
                isinstance(node, ast.Name) and node.id in bound
            )

        for node in ast.walk(function):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
            ):
                operands = [node.left, *node.comparators]
                if any(map(_is_none, operands)) and any(map(names_subsystem, operands)):
                    found.append((function.name, node.lineno))
            tests = []
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                tests.append(node.test)
            if isinstance(node, ast.BoolOp):
                tests.extend(node.values)
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                tests.append(node.operand)
            found.extend(
                (function.name, test.lineno) for test in tests if names_subsystem(test)
            )
    return sorted(set(found))


def style_members_outside_table(tree: ast.Module):
    """Lines naming a ``GossipStyle`` member outside ``STYLE_TABLE``."""
    table_nodes = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "STYLE_TABLE" for t in targets):
            table_nodes.update(map(id, ast.walk(node)))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "GossipStyle"
        and id(node) not in table_nodes
    )


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_no_subsystem_presence_tests_outside_constructors(path):
    assert presence_tests(parse(path)) == []


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_gossip_style_members_only_in_the_style_table(path):
    assert style_members_outside_table(parse(path)) == []


def test_the_style_table_covers_every_style():
    from repro.core.engine import STYLE_TABLE
    from repro.core.message import GossipStyle

    assert set(STYLE_TABLE) == set(GossipStyle)


def test_the_walk_sees_what_it_forbids():
    """The detectors flag each shape they exist to catch."""
    source = """
class Engine:
    def __init__(self, health=None):
        if health is not None:
            self.health = health

    def on_gossip(self, source):
        if self.health is not None and source is not None:
            self.health.observe_alive(source)
        latch = self._shed_latch
        ready = latch is not None
        if self.overload:
            pass
        if self.params.style is GossipStyle.FEEDBACK:
            pass

STYLE_TABLE = {GossipStyle.PUSH: None}
"""
    tree = ast.parse(source)
    assert [name for name, _ in presence_tests(tree)] == ["on_gossip"] * 3
    assert style_members_outside_table(tree) == [14]
