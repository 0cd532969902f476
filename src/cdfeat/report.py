"""Deterministic text formatting of the numbers in reports."""

from __future__ import annotations

import math


def fmt_float(x: float) -> str:
    """Format a real for a report with 17 significant digits; round-trips
    exactly. -0.0 is written as 0. Model files do not use it: `json.dumps`
    writes their reals.
    """
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite real cannot be formatted")
    return format(float(x) + 0.0, ".17g")
