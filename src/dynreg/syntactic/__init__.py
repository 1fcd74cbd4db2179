from .regex import EMPTY, EPSILON, cat, lit, parse_regex, star, union
from .dfa import Dfa, is_minimal, minimize_dfa, regex_to_dfa
from .monoid import Morphism, syntactic_monoid
from .stable import StableData, stable_data
from .classify import (
    BOUNDS,
    ENGINE_PLANS,
    OUTSIDE_Q_SG,
    Q_LZG,
    Q_SG_ONLY,
    TrichotomyReport,
    classify_language,
)


def analyze_dfa(dfa):
    """The analysis pipeline: DFA -> (morphism, stable data, report)."""
    m = syntactic_monoid(dfa)
    sd = stable_data(m)
    return m, sd, classify_language(m, sd)


def analyze_regex(text, alphabet):
    """Convenience pipeline: regex text -> (morphism, stable data, report)."""
    return analyze_dfa(regex_to_dfa(parse_regex(text, alphabet), alphabet))


__all__ = [
    "BOUNDS",
    "Dfa",
    "EMPTY",
    "ENGINE_PLANS",
    "EPSILON",
    "Morphism",
    "OUTSIDE_Q_SG",
    "Q_LZG",
    "Q_SG_ONLY",
    "StableData",
    "TrichotomyReport",
    "analyze_dfa",
    "analyze_regex",
    "cat",
    "classify_language",
    "is_minimal",
    "lit",
    "minimize_dfa",
    "parse_regex",
    "regex_to_dfa",
    "stable_data",
    "star",
    "syntactic_monoid",
    "union",
]
