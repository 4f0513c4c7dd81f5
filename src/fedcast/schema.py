"""Config rules declared on the fields: each field states its rule once.

knob() puts a field's value rule, and when the field is read, in its
dataclasses metadata. check walks the fields in order and raises at the
first one that breaks its rule (None, an absent section or source, is not
checked) or that is not read yet differs from its default, since such a
value would change nothing:

  <field> must be <rule>, got <value>
  <field> <value> <reason>

Both forms start with the field name, so a config error finds its path.
A field's rule is checked before whether it is read, and a reads relation
looks at an earlier field, whose rule has passed. Rules between fields stay
as code, after check.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class Rule:
    """A value rule; text completes "<field> must be ..."."""

    text: str
    ok: Callable[[Any], bool]


def at_least(low: int) -> Rule:
    return Rule(f">= {low}", lambda v: v >= low)


def one_of(options: Sequence) -> Rule:
    return Rule(f"one of {tuple(options)}", lambda v: v in options)


FINITE = Rule("finite", math.isfinite)
POSITIVE_FINITE = Rule("positive and finite", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE_FINITE = Rule(">= 0 and finite", lambda v: 0.0 <= v < math.inf)
FRACTION = Rule("in [0, 1)", lambda v: 0.0 <= v < 1.0)
NON_EMPTY = Rule("non-empty", lambda v: len(v) > 0)
ALL_POSITIVE = Rule("positive", lambda v: all(n >= 1 for n in v))

Reads = Callable[[Any, str], Optional[str]]


def read_by(key: str, table: Mapping[Any, Sequence[str]]) -> Reads:
    """The field is read when table[config.<key>] names it."""
    def unread(config, name: str) -> Optional[str]:
        value = getattr(config, key)
        if name in table[value]:
            return None
        return f"is not read by {key} {value!r}, which reads {list(table[value])}"
    return unread


def read_if(key: str, test: Callable[[Any], bool]) -> Reads:
    """The field is read when test(config.<key>) holds."""
    def unread(config, name: str) -> Optional[str]:
        value = getattr(config, key)
        return None if test(value) else f"has no effect with {key} {show(value)}"
    return unread


def knob(default=MISSING, rule: Optional[Rule] = None,
         reads: Optional[Reads] = None, **kwargs):
    """A dataclass field that declares its value rule and when it is read."""
    return field(default=default, metadata={"rule": rule, "reads": reads}, **kwargs)


def show(value) -> str:
    """A value as an error shows it: a bool as YAML writes it, else its repr."""
    return str(value).lower() if isinstance(value, bool) else repr(value)


def check(config, error: type[Exception] = ValueError) -> None:
    """Raise error at the first field that breaks its rule or is set unread."""
    for f in fields(config):
        value, rule = getattr(config, f.name), f.metadata.get("rule")
        if rule is not None and value is not None and not rule.ok(value):
            raise error(f"{f.name} must be {rule.text}, got {show(value)}")
        reads = f.metadata.get("reads")
        if reads is not None:
            default = f.default if f.default_factory is MISSING else f.default_factory()
            why = value != default and reads(config, f.name)
            if why:
                raise error(f"{f.name} {show(value)} {why}")
