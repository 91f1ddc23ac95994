"""A small OPA-style policy language compiled to :class:`PolicyRule`.

Operators write textual rules instead of Python lambdas::

    deny  contained-subject      if risk_score >= 1
    deny  untrusted-device-mgmt  if capability startswith "mgmt." and not device_trusted
    deny  admin-needs-hwk        if role startswith "admin" and "hwk" not in mfa_methods
    allow capability-granted     if capability

Grammar (one rule per line; ``#`` comments)::

    rule      := ("allow" | "deny") NAME "if" expr
    expr      := term {"and" term}
    term      := ["not"] cond
    cond      := attr op value | value "in" attr | value "not in" attr | attr
    op        := "==" | "!=" | ">=" | "<=" | ">" | "<" | "startswith" | "endswith"
    attr      := any AccessContext field name
    value     := quoted string | number | true | false

``attr`` alone is truthiness.  ``and`` only (no ``or``) — write two rules
instead, which keeps evaluation order explicit, exactly as first-match
policy lists want.
"""

from __future__ import annotations

import shlex
from typing import Callable, List

from repro.errors import ConfigurationError
from repro.policy.engine import AccessContext, PolicyEngine, PolicyRule

__all__ = ["parse_policy", "load_policy"]

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "startswith": lambda a, b: str(a).startswith(str(b)),
    "endswith": lambda a, b: str(a).endswith(str(b)),
}

_ATTRS = {
    "subject", "role", "capability", "resource", "zone", "domain",
    "device_trusted", "mfa_methods", "loa", "risk_score", "time",
}


def _parse_value(token: str):
    if token.startswith(('"', "'")):
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            raise ConfigurationError(f"unparseable value {token!r}") from None


def _attr_getter(name: str) -> Callable[[AccessContext], object]:
    if name not in _ATTRS:
        raise ConfigurationError(
            f"unknown context attribute {name!r}; valid: {sorted(_ATTRS)}"
        )
    return lambda ctx: getattr(ctx, name)


def _compile_cond(tokens: List[str]) -> Callable[[AccessContext], bool]:
    """One condition (already stripped of a leading ``not``)."""
    if len(tokens) == 1:
        get = _attr_getter(tokens[0])
        return lambda ctx: bool(get(ctx))
    if len(tokens) == 3 and tokens[1] in _OPS:
        get = _attr_getter(tokens[0])
        op = _OPS[tokens[1]]
        value = _parse_value(tokens[2])
        return lambda ctx: op(get(ctx), value)
    if len(tokens) == 3 and tokens[1] == "in":
        value = _parse_value(tokens[0])
        get = _attr_getter(tokens[2])
        return lambda ctx: value in (get(ctx) or ())
    if len(tokens) == 4 and tokens[1] == "not" and tokens[2] == "in":
        value = _parse_value(tokens[0])
        get = _attr_getter(tokens[3])
        return lambda ctx: value not in (get(ctx) or ())
    raise ConfigurationError(f"unparseable condition: {' '.join(tokens)}")


def _compile_expr(tokens: List[str]) -> Callable[[AccessContext], bool]:
    """``term {and term}`` with optional ``not`` per term."""
    terms: List[Callable[[AccessContext], bool]] = []
    current: List[str] = []
    chunks: List[List[str]] = []
    for tok in tokens:
        if tok == "and":
            if not current:
                raise ConfigurationError("dangling 'and'")
            chunks.append(current)
            current = []
        else:
            current.append(tok)
    if not current:
        raise ConfigurationError("empty condition")
    chunks.append(current)

    for chunk in chunks:
        negate = False
        # 'not' prefixes a term UNLESS it is the 'not in' form
        if chunk[0] == "not" and not (len(chunk) >= 3 and chunk[2] == "in"):
            negate = True
            chunk = chunk[1:]
        cond = _compile_cond(chunk)
        terms.append((lambda c: (lambda ctx: not c(ctx)))(cond) if negate else cond)

    return lambda ctx: all(t(ctx) for t in terms)


def parse_policy(text: str) -> List[PolicyRule]:
    """Compile a policy document into ordered rules."""
    rules: List[PolicyRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = shlex.split(line, posix=False)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from exc
        if len(tokens) < 4 or tokens[0] not in ("allow", "deny"):
            raise ConfigurationError(
                f"line {lineno}: expected '(allow|deny) NAME if EXPR'"
            )
        effect, name = tokens[0], tokens[1]
        if tokens[2] != "if":
            raise ConfigurationError(f"line {lineno}: missing 'if'")
        predicate = _compile_expr(tokens[3:])
        rules.append(PolicyRule(
            name=name, applies=predicate, effect=effect,
            reason=f"policy line {lineno}: {line}",
        ))
    return rules


def load_policy(text: str, *, engine: PolicyEngine | None = None) -> PolicyEngine:
    """Parse ``text`` and install the rules into a (new) engine."""
    engine = engine if engine is not None else PolicyEngine()
    for rule in parse_policy(text):
        engine.add_rule(rule)
    return engine


STANDARD_POLICY = """
# the deployment's default zero-trust pack, in policy language
deny  contained-subject        if risk_score >= 1
deny  untrusted-device-mgmt    if capability startswith "mgmt." and not device_trusted
deny  admin-without-hwk        if role startswith "admin" and "hwk" not in mfa_methods
allow capability-granted       if capability
"""
