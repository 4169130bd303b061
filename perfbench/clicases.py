"""The fixed CLI command cycle and the output each command must print.

``expected_cli.json`` holds the argument lists, exit codes and expected
stdout; ``verify`` points at the repository's golden report instead.  The
benchmark's tests check that file against the oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected_cli.json")


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    exit: int
    stdout: str


def commands(root: Path) -> list[Command]:
    """The cycle in its fixed order, with expected stdout resolved."""
    out = []
    for row in json.loads(EXPECTED.read_text(encoding="utf-8"))["commands"]:
        if "stdout_file" in row:
            stdout = (root / row["stdout_file"]).read_text(encoding="utf-8")
        else:
            stdout = row["stdout"]
        out.append(Command(row["name"], tuple(row["argv"]), row["exit"], stdout))
    return out


def check(cmd: Command, result: tuple[int, str]) -> str | None:
    """None when exit code and stdout are as expected, else the reason."""
    code, stdout = result
    if code != cmd.exit:
        return f"{cmd.name}: wrong exit code"
    if stdout != cmd.stdout:
        return f"{cmd.name}: stdout differs from the expected output"
    return None
