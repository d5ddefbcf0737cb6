"""fptrace: certified verification of frame-proof codes, traceability
schemes, and the parameter bounds claimed for them.

The package verifies combinatorial collusion-security properties exactly
(coalition enumeration with deterministic witnesses) and compares
transcendental bound expressions through rational interval enclosures with
directed rounding, so every True/False verdict is machine-certified.
"""

# layer order: each module imports only those before it
from . import rigor, fpcode, tascheme, bounds, paramscan  # noqa: F401

__version__ = "0.1.0"
