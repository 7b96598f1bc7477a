"""Exception types shared across the package, and how a report names one."""


def error_body(phase: str, exc: Exception) -> dict:
    """The "error" block of a report: the phase that failed and what it raised."""
    return {"phase": phase, "type": type(exc).__name__, "message": str(exc)}


class CdsPackError(Exception):
    """Base class for package-specific errors."""


class GraphFormatError(CdsPackError):
    """Edge-list input is malformed (bad header, loops, duplicates, bad ids)."""


class PackingFormatError(CdsPackError):
    """A packing document does not have the packing JSON shape."""


class GenerationError(CdsPackError):
    """A graph generator exhausted its retry budget."""


class NonRegularGraph(CdsPackError):
    """An operation that requires a regular graph got a non-regular one."""


class EigenConvergenceError(CdsPackError):
    """Iterative eigenvalue estimation did not converge within its cap."""


class InfeasibleParameters(CdsPackError):
    """Derived constants violate a feasibility constraint in theory mode."""


class ResampleBudgetExhausted(CdsPackError):
    """Coloring repair hit its step cap, found no move or undid its last move."""


class PostconditionViolation(CdsPackError):
    """A coloring output failed one of its contractual properties."""

    def __init__(self, bullet, witness=None, detail=""):
        self.bullet = bullet
        self.witness = witness
        msg = f"postcondition '{bullet}' violated"
        if witness is not None:
            msg += f" (witness: {witness})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NoCrossEdge(CdsPackError):
    """A class of a set reaches no other class through free reservoir vertices."""


class VerificationFailed(CdsPackError):
    """A constructed packing did not pass independent verification."""

    def __init__(self, report, msg="packing failed verification"):
        self.report = report
        super().__init__(f"{msg}: {report.failures}")


class InstanceTooLarge(CdsPackError):
    """A brute-force oracle was asked to run past its hard size guard."""
