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


class NotMinimal(AlgebraError):
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


class NotCommutative(EngineError):
    pass


class NotNilPlusOne(EngineError):
    pass


class NotZg(EngineError):
    pass


class NotSg(EngineError):
    pass


class NotDefinite(EngineError):
    pass


class TupleArity(EngineError):
    pass


class MissingProjection(EngineError):
    pass


class NotAWitness(EngineError):
    pass


class NoWindowPlan(EngineError):
    pass
