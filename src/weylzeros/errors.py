"""Exception types shared across the package, mapped to CLI exit categories."""


class WeylzerosError(Exception):
    """Base class; `category` feeds the CLI diagnostic line and exit code."""

    category = "numerical"


class ConfigError(WeylzerosError):
    category = "config"


class ResourceBudgetError(WeylzerosError):
    category = "resource"


class NumericalInstabilityError(WeylzerosError):
    category = "numerical"
