"""Exception hierarchy shared by all bildsim modules, and the two checks that
turn a bad request into one of them: the memory check, and the seed check
of the generator that every sampler draws from."""

import os

import numpy as np


class BildsimError(Exception):
    """Base class for all bildsim errors."""


class ValidationError(BildsimError, ValueError):
    """Input violates a structural invariant (shape, symmetry, finiteness)."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class DegenerateMeasureError(ValidationError):
    """Covariance trace is (numerically) zero; normalized maps are undefined."""


class NumericalError(BildsimError):
    """A computation produced non-finite values or failed to converge."""


class RegimeError(BildsimError):
    """Requested estimate is outside its validity regime (time scales, step size)."""


def check_memory(nbytes: int, what: str) -> None:
    """Raise ValidationError when ``what`` needs more bytes than the machine's
    physical memory; called before numpy is asked for them."""
    physical_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > physical_bytes:
        raise ValidationError(
            f"{what} needs {nbytes / 2**30:.3g} GiB, more than "
            f"the {physical_bytes / 2**30:.3g} GiB of physical memory"
        )


def philox(seed: int) -> np.random.Generator:
    """A fresh generator on the Philox stream keyed by an integer seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2^64), not {seed!r}")
    return np.random.Generator(np.random.Philox(np.uint64(seed)))
