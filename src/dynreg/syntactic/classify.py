"""Complexity trichotomy of a regular language from its stable semigroup."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.green import local_monoids
from ..algebra.varieties import check_variety, find_violation

Q_LZG = "Q_LZG"
Q_SG_ONLY = "Q_SG_ONLY"
OUTSIDE_Q_SG = "OUTSIDE_Q_SG"

BOUNDS = {
    Q_LZG: "O(1)",
    Q_SG_ONLY: "O(log log n)",
    OUTSIDE_Q_SG: "Theta(log n / log log n)",
}

ENGINE_PLANS = {
    Q_LZG: "chunked-lzg",
    Q_SG_ONLY: "kary",
    OUTSIDE_Q_SG: "kary",
}


@dataclass
class TrichotomyReport:
    cls: str
    bound: str
    engine_plan: str
    witnesses: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "class": self.cls,
            "bound": self.bound,
            "engine_plan": self.engine_plan,
            "witnesses": self.witnesses,
            **self.extras,
        }


def classify_language(m, sd):
    """Trichotomy of Theorem 1, decided on the stable semigroup.

    Syntactic-monoid-level flags are reported as informational extras only.
    """
    stable = sd.stable
    extras = {
        "syntactic_monoid_size": m.target.size,
        "stability_index": sd.index,
        "stable_size": stable.size,
        "monoid_in_sg": check_variety(m.target, "SG"),
        "monoid_in_zg": check_variety(m.target, "ZG"),
    }
    witnesses = {}
    if check_variety(stable, ("LOCAL", "ZG")):
        cls = Q_LZG
    elif check_variety(stable, "SG"):
        cls = Q_SG_ONLY
        for e, local, incl in local_monoids(stable):
            viol = find_violation(local, "ZG")
            if viol is not None:
                x, y = viol
                witnesses["local_monoid_idempotent"] = stable.names[e]
                witnesses["zg_violation"] = (
                    stable.names[incl[x]],
                    stable.names[incl[y]],
                )
                break
    else:
        cls = OUTSIDE_Q_SG
        x, y = find_violation(stable, "SG")
        witnesses["sg_violation"] = (stable.names[x], stable.names[y])
    return TrichotomyReport(
        cls=cls,
        bound=BOUNDS[cls],
        engine_plan=ENGINE_PLANS[cls],
        witnesses=witnesses,
        extras=extras,
    )
