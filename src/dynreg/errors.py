"""Exception types shared across the package."""


class AlgebraError(Exception):
    pass


class AssociativityViolation(AlgebraError):
    def __init__(self, x, y, z):
        self.triple = (x, y, z)
        super().__init__(f"(x*y)*z != x*(y*z) for x={x}, y={y}, z={z}")


class RangeError(AlgebraError):
    pass


class UnsupportedVariety(AlgebraError):
    pass


class NotRegular(AlgebraError):
    pass


class NotMaximal(AlgebraError):
    pass


class InvalidCongruence(AlgebraError):
    pass


class TooLarge(AlgebraError):
    pass


class InternalError(Exception):
    pass


class RegexSyntaxError(ValueError):
    """Regex parse failure; carries the 0-based offending position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class VebError(Exception):
    pass


class KeyOrderError(VebError):
    pass


class KeyRangeError(VebError):
    pass


class DuplicateKey(VebError):
    pass


class MissingKey(VebError):
    pass


class EngineError(Exception):
    pass


class PositionOutOfRange(EngineError):
    pass


class NotApplicable(EngineError):
    """The semigroup is outside the class an engine factory serves."""


class NoPlan(NotApplicable):
    """The factory's variety holds, but no constant-time plan was found."""


class NotCommutative(NotApplicable):
    pass


class NotNilPlusOne(NotApplicable):
    pass


class NotZg(NotApplicable):
    pass


class NotSg(NotApplicable):
    pass


class NotDefinite(EngineError):
    pass


class TupleArity(EngineError):
    pass


class MissingProjection(EngineError):
    pass


class NotAWitness(EngineError):
    pass


class NoWindowPlan(NoPlan):
    pass


class NoZgCertificate(NoPlan):
    pass
