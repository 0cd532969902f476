"""Deterministic text formatting shared by reports and model serialization."""

from __future__ import annotations

import math


def fmt_float(x: float) -> str:
    """Format a real with 17 significant digits; round-trips exactly.

    -0.0 is written as 0: a JSON reader takes "-0" for the integer 0, so a
    signed zero could not round-trip anyway, and a reloaded model would
    serialize differently.
    """
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite real cannot be formatted")
    return format(float(x) + 0.0, ".17g")
