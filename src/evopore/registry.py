"""Named initial fields and volume sources.

Experiments refer to fields by registry name plus flat parameters; only
registered entries are available, there is no expression parsing.  Fields map
point arrays (m, 2) to values (m,); sources take (t, points).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _pts(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


def _constant_field(value: float = 0.0):
    return lambda x: np.full(len(_pts(x)), float(value))


def _affine_field(c0: float = 0.0, cx: float = 0.0, cy: float = 0.0):
    def f(x):
        p = _pts(x)
        return c0 + cx * p[:, 0] + cy * p[:, 1]
    return f


def _cosine_product_field(offset: float = 0.0, amplitude: float = 1.0):
    def f(x):
        p = _pts(x)
        return offset + amplitude * np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    return f


def _zero_source():
    return lambda t, x: np.zeros(len(_pts(x)))


def _constant_source(value: float = 0.0):
    return lambda t, x: np.full(len(_pts(x)), float(value))


def _decaying_cosine_source(amplitude: float = 1.0, rate: float = 1.0):
    def f(t, x):
        p = _pts(x)
        return amplitude * np.exp(-rate * t) * np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    return f


FIELDS = {
    "constant": _constant_field,
    "affine": _affine_field,
    "cosine_product": _cosine_product_field,
}

SOURCES = {
    "zero": _zero_source,
    "constant": _constant_source,
    "decaying_cosine": _decaying_cosine_source,
}


def register_field(name: str, factory) -> None:
    FIELDS[name] = factory


def _build(kind: str, table: dict, name: str, params: dict | None):
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; registered: {sorted(table)}")
    try:
        return table[name](**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind} {name!r}: {exc}") from exc


def build_field(name: str, params: dict | None = None):
    return _build("field", FIELDS, name, params)


def build_source(name: str, params: dict | None = None):
    return _build("source", SOURCES, name, params)
