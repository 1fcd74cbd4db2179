"""JSON wire formats for semigroups, congruences, and languages."""

from __future__ import annotations

import json

from .algebra.congruence import Congruence
from .algebra.core import build_semigroup
from .errors import RangeError
from .syntactic.dfa import Dfa, regex_to_dfa
from .syntactic.regex import parse_regex


def semigroup_to_json(s):
    return {"elements": list(s.names), "table": [list(r) for r in s.table]}


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _field(obj, key, what):
    """obj[key], or a RangeError naming the key when obj, the `what` JSON,
    is no object or lacks it."""
    if not isinstance(obj, dict) or key not in obj:
        raise RangeError(f"{what} needs the field {key!r}")
    return obj[key]


def semigroup_from_json(obj):
    table = _field(obj, "table", "semigroup JSON")
    names = obj.get("elements")
    if names is not None and not _strings(names):
        raise RangeError("'elements' must be a list of strings")
    return build_semigroup(table, names=names)


def congruence_from_json(obj):
    return Congruence(_field(obj, "blocks", "congruence JSON"))


def language_from_json(obj):
    """Returns a complete Dfa, not minimized, from {'alphabet', 'regex'} or
    {'alphabet', 'dfa': {states, delta, initial, finals}}."""
    if not isinstance(obj, dict):
        raise RangeError("language JSON must be an object")
    alphabet = obj.get("alphabet")
    if not alphabet or not (isinstance(alphabet, str) or _strings(alphabet)):
        raise RangeError("language JSON needs an 'alphabet': a string or a list of strings")
    if "regex" in obj:
        if not isinstance(obj["regex"], str):
            raise RangeError("'regex' must be a string")
        ast = parse_regex(obj["regex"], alphabet)
        return regex_to_dfa(ast, alphabet)
    if "dfa" in obj:
        d = obj["dfa"]
        if not isinstance(d, dict):
            raise RangeError("'dfa' must be an object")
        states, delta, initial, finals = (
            _field(d, key, "'dfa'") for key in ("states", "delta", "initial", "finals"))
        if not isinstance(finals, list):
            raise RangeError("'finals' must be a list of states")
        dfa = Dfa(alphabet, delta, initial, finals)
        if dfa.states != states:
            raise RangeError("dfa state count mismatch")
        return dfa
    raise RangeError("language JSON needs 'regex' or 'dfa'")


def load_json(path):
    with open(path) as f:
        return json.load(f)
