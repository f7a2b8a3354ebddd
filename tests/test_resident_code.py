"""The sampler's set-up and chunk maps call only numpy code that a launch runs anyway.

An ``experiment`` launch's resident size grows by the numpy code it runs: the
first call into a 64 KB window of ``_multiarray_umath``'s code faults the whole
window in.  Where one call would be the only user of such a window, these
functions use a primitive that the launch runs anyway: ``np.count_nonzero``
for ``.any()`` and ``.all()``, ``math.isfinite`` for a scalar, and Python
comparisons of strings instead of a string array compared with a string.  This
test fails if one of those calls comes back.
"""

import ast
import inspect
import textwrap

import pytest

from polyagraph import graphs, schedules, seeding, urn

_FUNCTIONS = [urn.GuideTable.__init__, urn.GuideTable.search, urn.copy_pointer_draws,
              urn._chunk_draws, graphs.ba_block_draws, graphs._ba_chunk,
              schedules.Schedule.cumulative, schedules.RationalSegments._at,
              seeding.pass_slices, seeding.Stream.random]


def _tree(function):
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


@pytest.mark.parametrize("function", _FUNCTIONS, ids=lambda f: f.__qualname__)
def test_calls_no_any_all_or_isfinite(function):
    tree = _tree(function)
    methods = {node.func.attr for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not methods & {"any", "all"}
    numpy_names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert "isfinite" not in numpy_names


@pytest.mark.parametrize("function", _FUNCTIONS, ids=lambda f: f.__qualname__)
def test_compares_strings_only_one_at_a_time(function):
    # A comprehension compares one Python string at a time; anywhere else a
    # comparison with a string could be numpy's string-array comparison.
    tree = _tree(function)
    in_python = {id(node) for comp in ast.walk(tree)
                 if isinstance(comp, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
                 for node in ast.walk(comp)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            strings = [operand for operand in (node.left, *node.comparators)
                       if isinstance(operand, ast.Constant) and isinstance(operand.value, str)]
            assert not strings or id(node) in in_python, ast.unparse(node)
