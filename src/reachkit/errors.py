"""Exception types shared across the toolkit, and :func:`refuse_past_cap`,
the refusal shared by the size caps checked before an allocation."""


class ReachkitError(Exception):
    """Base class for toolkit-specific failures."""


class CapacityError(ReachkitError):
    """A brute-force routine was asked to exceed its configured size cap."""


def refuse_past_cap(count: int, cap: int, what: str, unit: str) -> None:
    """Raise :class:`CapacityError` if ``count`` exceeds ``cap``, with the
    message ``f"{what} {count} {unit}, more than the cap of {cap}"``."""
    if count > cap:
        raise CapacityError(f"{what} {count} {unit}, more than the cap of {cap}")


class InfeasibleError(ReachkitError):
    """No solution exists within the stated constraints or budget."""


class ReductionIntegrityError(ReachkitError):
    """A mapped solution failed a check that the construction guarantees.

    This signals a bug in the reduction machinery or the numerical kernel,
    not bad user input.
    """


class InstanceFormatError(ReachkitError, ValueError):
    """An instance file could not be parsed into a consistent document."""
