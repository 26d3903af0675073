"""Error taxonomy.

Every operational failure carries a short machine-readable token so the CLI
can map it to an exit code and tests can match on it without parsing prose.
"""


class LabError(Exception):
    """Base error; ``token`` is a stable machine-readable identifier."""

    token = "lab-error"

    def __init__(self, message, **data):
        self.data = data
        super().__init__(message)


def _make(token_str, doc):
    cls = type(token_str.replace("-", "_").title().replace("_", ""), (LabError,), {
        "token": token_str,
        "__doc__": doc,
    })
    return cls


DegenerateFrame = _make("degenerate-frame", "Tangent frame is linearly dependent.")
OutOfDomain = _make("out-of-domain", "Chart point lies outside the field domain.")
SolverDiverged = _make("solver-diverged", "Newton iteration exhausted its damping budget.")
ContinuationFailed = _make("continuation-failed", "A step of the membrane-level continuation diverged.")
IncompatibleBoundary = _make("incompatible-boundary", "Strip edge data have unequal means.")
MonodromyDefect = _make("monodromy-defect", "Periodic closure of the reconstructed u exceeds tolerance.")
NonisolatedSingularities = _make("nonisolated-singularities", "v vanishes along the whole axis segment.")
ProbeTooClose = _make("probe-too-close", "Type probes landed too close to a zero to read a sign.")
CircleHitsZero = _make("circle-hits-zero", "Winding circle passes through a zero of the difference field.")
WindingUnresolved = _make("winding-unresolved", "Angle accumulation did not settle on an integer.")
OutsideTotalSpace = _make("outside-total-space", "Point is not in the open set fibred by the family.")
BracketFailed = _make("bracket-failed", "Root bracket could not be established in the search interval.")
