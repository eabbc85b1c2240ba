"""Name tables shared by the command-line parser, sweep and verify.

The module imports nothing, so the parser can offer these names as
choices without loading numpy or the modules that compute with them.
"""

__all__ = ["AXIS_NAMES", "AXIS_WRITES", "RECORD_COLUMNS", "SUITES"]

# The columns of every point, sweep and JSON record, in output order.
RECORD_COLUMNS = ("T", "gamma", "b1", "b2", "total", "quantum", "classical", "concurrence")

# (column, sign) pairs each sweep axis writes; two axes must not share a column.
AXIS_WRITES = {
    "T": (("T", 1.0),),
    "gamma": (("gamma", 1.0),),
    "b1": (("b1", 1.0),),
    "b2": (("b2", 1.0),),
    "b_uniform": (("b1", 1.0), ("b2", 1.0)),
    "b_anti": (("b1", 1.0), ("b2", -1.0)),
}
AXIS_NAMES = tuple(AXIS_WRITES)

# The verification suites, in the order ``verify --suite all`` runs them.
SUITES = ("gibbs", "wootters", "ppt", "ensemble")
