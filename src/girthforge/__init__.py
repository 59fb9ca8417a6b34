"""girthforge: exact girth-constrained point-line arrangements.

Constructs two families of bipartite graphs over prime fields, truncates
them to integer boxes where the defining equations hold without modular
reduction, realizes the result as integer points and lines in R^k,
projects to the plane through a verified generic linear map, and checks
every structural claim (girth, forbidden cycle lengths, degrees, incidence
counts) with exact decision procedures.
"""

from .truncation import LUTruncationSpec, WengerTruncationSpec, build_truncated

__version__ = "0.1.0"
