"""The one option parser behind every ``python -m repro`` subcommand.

Subcommands declare their options as :class:`Option` rows (job kinds
derive theirs from the params table in ``serve/protocol.py``) and hand
them to :func:`parse_options`, which owns the shared usage-error
discipline: ``unexpected argument`` plus the usage line, ``missing value
for the last option``, ``bad option value``, and exit status 2.
``argparse`` is not used because its messages and ``SystemExit`` differ
from the ones the CLI has always printed.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Option:
    """One command-line option: any of ``flags`` sets ``dest``.

    ``parse`` turns the option's value into a Python value (raising
    ``ValueError`` on junk); ``None`` makes the option a switch that
    stores ``const``.  A ``repeat`` option appends each value to a list.
    ``noun`` names the value in the missing-value message.
    """

    flags: tuple[str, ...]
    dest: str
    parse: "Callable[[str], Any] | None" = str
    default: Any = None
    const: Any = True
    repeat: bool = False
    noun: str = "value"


class Parsed(dict):
    """Parsed option values by ``dest``; ``given`` holds the dests the
    command line actually set."""

    def __init__(self, values: dict, given: set):
        super().__init__(values)
        self.given = given


def parse_options(args: list[str], options, usage: str,
                  positionals: tuple[str, ...] = ()) -> "Parsed | int":
    """Parse ``args`` against ``options``; an ``int`` is an exit status.

    Arguments not starting with ``-`` fill ``positionals`` in order
    (unfilled ones stay ``None``).  On a usage error the message is
    printed here and 2 is returned.
    """
    by_flag = {flag: option for option in options for flag in option.flags}
    values: dict[str, Any] = {
        option.dest: list(option.default or ()) if option.repeat
        else option.default
        for option in options
    }
    values.update(dict.fromkeys(positionals))
    given: set[str] = set()
    waiting = list(positionals)
    walker = iter(args)
    for arg in walker:
        option = by_flag.get(arg)
        if option is None:
            if waiting and not arg.startswith("-"):
                dest = waiting.pop(0)
                values[dest] = arg
                given.add(dest)
                continue
            print(f"unexpected argument {arg!r}")
            print(usage)
            return 2
        given.add(option.dest)
        if option.parse is None:
            values[option.dest] = option.const
            continue
        text = next(walker, None)
        if text is None:
            print(f"missing value for the last option "
                  f"({arg} needs a {option.noun})")
            return 2
        try:
            value = option.parse(text)
        except ValueError as error:
            print(f"bad option value: {error}")
            return 2
        if option.repeat:
            values[option.dest].append(value)
        else:
            values[option.dest] = value
    return Parsed(values, given)


def seed_int(text: str) -> int:
    """Seeds accept any Python integer literal (``0x5EED`` included)."""
    return int(text, 0)


def parse_jobs(value: str) -> "int | str":
    """``--jobs`` values: a worker count or the literal ``auto``.

    ``auto`` resolves to one worker per core, bounded by the shard
    count (the engine's :func:`_resolve_jobs` convention).  Anything
    else raises with a did-you-mean hint — callers exit 2.
    """
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        hint = (" (did you mean 'auto'?)"
                if difflib.get_close_matches(value, ["auto"], n=1,
                                             cutoff=0.6) else "")
        raise ValueError(
            f"--jobs expects a worker count or 'auto', got {value!r}{hint}"
        ) from None


def did_you_mean(word: str, known) -> str:
    """``"; did you mean 'x'?"`` for the closest of ``known``, or ``""``."""
    close = difflib.get_close_matches(word, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def unknown_command(command: str, known: list[str]) -> int:
    """Print the unknown-name error with its hint; exit status 2."""
    print(f"unknown command {command!r}{did_you_mean(command, known)}")
    print("known commands: " + ", ".join(known))
    return 2
