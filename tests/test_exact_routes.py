"""Every ``exact --method`` route takes ``(j, t, schedule)`` and decides its own reach.

``cli.cmd_exact`` looks the route up by its method name in one table and
hands it the parsed schedule.  So the CLI holds no switch on a schedule's
type: ``cli.py`` calls no ``isinstance`` and imports no schedule class, only
``parse_schedule``.  A route that needs the CLI to unwrap a schedule, or a
method whose route takes other arguments, then fails this test.
"""

import argparse
import ast
import inspect
from pathlib import Path

import pytest

from polyagraph import cli, schedules

TREE = ast.parse(Path(cli.__file__).read_text())


def _routes():
    """``exact --method`` name -> route, read off the one table in ``cmd_exact``."""
    table, = (node for node in ast.walk(ast.parse(inspect.getsource(cli.cmd_exact)))
              if isinstance(node, ast.Dict))
    return {key.value: getattr(cli, value.id) for key, value in zip(table.keys, table.values)}


def _method_choices():
    commands, = (action for action in cli._parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    method, = (action for action in commands.choices["exact"]._actions
               if "--method" in action.option_strings)
    return method.choices


def test_cli_switches_on_no_type():
    called = {node.func.id for node in ast.walk(TREE)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"isinstance", "issubclass", "type"}


def test_cli_imports_no_schedule_class():
    from_schedules = {alias.name for node in ast.walk(TREE)
                      if isinstance(node, ast.ImportFrom) and node.module == "schedules"
                      for alias in node.names}
    assert from_schedules == {"parse_schedule"}
    assert not [name for name, value in vars(cli).items()
                if isinstance(value, type) and issubclass(value, schedules.Schedule)]


def test_every_method_has_a_route():
    assert sorted(_routes()) == sorted(_method_choices())


@pytest.mark.parametrize("method", sorted(_method_choices()))
def test_every_route_takes_j_t_schedule(method):
    inspect.signature(_routes()[method]).bind(j=2, t=8, schedule=None)
