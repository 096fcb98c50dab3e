"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all errors raised by photonsim."""


class InvalidOccupation(SimulatorError):
    """A Fock occupation number is negative or otherwise malformed."""


class RegisterMismatch(SimulatorError):
    """Two objects refer to registers of different shape (mode count or polarization)."""


class PolarizationMismatch(SimulatorError):
    """A polarization component was placed on an unpolarized register."""


class MixedRegister(SimulatorError):
    """A state string mixes polarized and unpolarized mode entries."""


class MixedSector(SimulatorError):
    """An operation requiring a fixed photon number got a mixed-sector state."""


class NotUnitary(SimulatorError):
    """A matrix that must be unitary is not, within tolerance."""


class InvalidSpec(SimulatorError):
    """A component specification is malformed (bad permutation, bad convention, ...)."""


class OutOfRange(SimulatorError):
    """A mode index or anchor does not fit in the register."""


class TooLarge(SimulatorError):
    """The requested computation would exceed the simulator's work limit."""


class InvalidGate(SimulatorError):
    """Unknown gate name or invalid gate parameters."""


class ParseError(SimulatorError):
    """Text input could not be parsed.

    Carries the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(SimulatorError):
    """A post-selection expression references modes outside the register."""
