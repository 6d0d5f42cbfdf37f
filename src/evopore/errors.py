"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


class MeshQualityError(ConfigError):
    """Mesh construction produced degenerate or badly shaped elements.

    The mesh is fixed by configured values (reference radius, hole polygon,
    ring spacing), so this is a configuration error."""


class NumericalError(Exception):
    """Numerical breakdown: non-finite values, solver divergence, and similar."""

