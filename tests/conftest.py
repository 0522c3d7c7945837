import json
import os

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# over quadrature tolerances does not depend on the run; no deadline,
# because a cold first call pays for numpy and the special functions.
settings.register_profile("koshliakov", derandomize=True, deadline=None)
settings.load_profile("koshliakov")

_DATA = os.path.join(os.path.dirname(__file__), "data", "golden.json")


def load_golden() -> dict:
    """name -> complex, parsed from the 40-digit decimal strings."""
    with open(_DATA) as fh:
        doc = json.load(fh)
    return {name: complex(float(entry["re"]), float(entry["im"]))
            for name, entry in doc["values"].items()}


@pytest.fixture(scope="session")
def golden() -> dict:
    return load_golden()


def rel_err(value, reference) -> float:
    value, reference = complex(value), complex(reference)
    return abs(value - reference) / max(abs(reference), 1e-300)
