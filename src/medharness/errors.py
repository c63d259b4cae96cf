"""Exception hierarchy shared across the harness.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
EndpointError -> 3, IncompleteRunError -> 4.
"""


class HarnessError(Exception):
    """Base class for all harness errors."""


class ConfigError(HarnessError):
    """Bad or missing configuration (usage errors). A corrupt trace row (one
    that does not parse, or lacks a string `item_id` or `stage`) and a trace
    of another stage are usage errors too."""


class DataError(HarnessError):
    """Corpus, index, or cache files are missing or malformed, or trace rows
    cannot be scored (a duplicate item, no rows)."""


class EndpointError(HarnessError):
    """A remote endpoint failed after transport retries were exhausted."""


class IncompleteRunError(HarnessError):
    """A benchmark run ended without covering the full test split."""
