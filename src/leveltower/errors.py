"""Error taxonomy shared by the whole package, and the rank cap the CLI echoes.

Every failure mode that callers are expected to handle gets its own class;
`cli.exit_code_for` maps them onto the exit-code contract in the `cli`
docstring.  The default rank cap lives here, beside CapExceeded, so that
the CLI can report it without importing `formal`, which enforces it.
"""

DEFAULT_RANK_CAP = 5000  # formal.build_tower: ring rank of the top stage


class LevelTowerError(Exception):
    """Base class for all package errors."""


class PreconditionError(LevelTowerError):
    """An operation's stated precondition is violated (CLI exit 2)."""


class CertificationError(PreconditionError):
    """A required regular-elliptic (or separability) certificate is absent."""


class Inconclusive(CertificationError):
    """The certifier could not establish irreducibility; input is rejected."""


class CapExceeded(LevelTowerError):
    """A configured desk-scale cap (rank, group order, conductor, q) was hit (CLI exit 3)."""


class RankCapExceeded(CapExceeded):
    """Ring rank would exceed the configured cap."""


class OracleMismatch(LevelTowerError):
    """Two independent computation routes disagree (CLI exit 4)."""


class NonExactDivision(LevelTowerError):
    """Polynomial division left a nonzero remainder where exactness was required."""

    def __init__(self, msg, remainder=None):
        super().__init__(msg)
        self.remainder = remainder


class NotAFlag(LevelTowerError):
    """The greedy chain construction produced a non-subgroup or non-free step."""
