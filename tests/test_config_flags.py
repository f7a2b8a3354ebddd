"""The config flags of the CLI are config keys, read by ``configio`` alone.

``experiment`` takes every config key but ``outputs`` as a flag of the same
name, besides ``--config`` and ``--threads``, and ``repro`` takes ``--t``
and ``--replicates``.  Each such flag hands its text to
``configio.read_config`` as given, so none may carry a ``type=``,
``choices=`` or ``dest=`` of its own.  A new ``ExperimentConfig`` field then
reaches the command line through ``configio``, or fails this test.
"""

import argparse

import pytest

from polyagraph import cli, configio

CONFIG_KEYS = [key for key in configio._FIELD_OF_KEY if key != "outputs"]


def _options(command):
    """The options of ``command``'s subparser, by their flag, without ``--help``."""
    parser = cli._parser()
    commands, = (action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    return {action.option_strings[-1]: action
            for action in commands.choices[command]._actions
            if action.option_strings and action.dest != "help"}


@pytest.mark.parametrize("command, keys, others", [
    ("experiment", CONFIG_KEYS, ["--config", "--threads"]),
    ("repro", ["t", "replicates"], ["--out", "--threads"]),
])
def test_config_flags_are_config_keys_read_as_text(command, keys, others):
    options = _options(command)
    assert sorted(options) == sorted(["--" + key for key in keys] + others)
    for key in keys:
        action = options["--" + key]
        assert (action.dest, action.type, action.choices) == (key, None, None), key
