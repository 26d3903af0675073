"""Ratchet on the package's settable values.

A settable value is a defaulted function parameter or a defaulted
dataclass field in src/slfib, or a CLI flag summed over the
subcommands (``-h`` aside).  A value that nothing sets belongs in a
module constant, so the count may only fall; lower SETTABLE_MAX with it.
"""

import argparse
import ast
from pathlib import Path

from slfib.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "slfib"
SETTABLE_MAX = 86


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def count_source_defaults():
    """(defaulted parameters, defaulted dataclass fields) over src/slfib."""
    params = fields = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults)
                params += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                              for s in node.body)
    return params, fields


def count_cli_flags():
    _, commands = build_parser()
    return sum(not isinstance(action, argparse._HelpAction)
               for sub in commands.values() for action in sub._actions)


def test_settable_values_do_not_grow():
    params, fields = count_source_defaults()
    flags = count_cli_flags()
    total = params + fields + flags
    print(f"settable values: {params} parameters + {fields} dataclass fields "
          f"+ {flags} CLI flags = {total}")
    assert total <= SETTABLE_MAX
