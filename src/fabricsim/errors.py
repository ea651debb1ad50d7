"""Exception hierarchy shared across the fabric simulator."""


class FabricError(Exception):
    """Base class for all fabric errors."""


# --- log storage ---

class LogError(FabricError):
    pass


class NameCollision(LogError):
    """A log with this name already exists on the node."""


class InvalidLogConfig(LogError):
    """Bad element size, capacity, or log name."""


class PayloadTooLarge(LogError):
    """Payload exceeds the log's fixed element size."""


class SeqEvicted(LogError):
    """Sequence number fell out of the circular retention window."""


class SeqNotAssigned(LogError):
    """Sequence number has not been assigned yet."""


class CorruptHeader(LogError):
    """Log file header (or a non-tail record) failed validation."""


class StorageFailure(LogError):
    """Underlying I/O failed."""


# --- transport ---

class TransportError(FabricError):
    pass


class UnknownLog(TransportError):
    """Server has no log with the requested name."""


class SizeMismatch(TransportError):
    """Client's cached element size is stale; append rejected."""


class FrameError(TransportError):
    """Wire frame failed to decode."""


# --- network simulator ---

class NetError(FabricError):
    pass


class RouteUnreachable(NetError):
    """No route between the two nodes in this topology."""


# --- handler engine ---

class UnknownHandler(FabricError):
    """handler_id is not registered in the node's handler table."""


class SimulatedCrash(FabricError):
    """Raised by fault-injection hooks to model a node crash."""


# --- dataflow ---

class DataflowError(FabricError):
    pass


class TypeMismatch(DataflowError):
    pass


class CycleDetected(DataflowError):
    pass


class UnknownPlacement(DataflowError):
    pass


class DoubleAssignment(DataflowError):
    """A conflicting value was supplied for an already-assigned operand slot."""


class CorruptGraphState(DataflowError):
    pass


# --- pipeline / pilot ---

class InvalidWindow(FabricError):
    """Change detection was handed an incomplete or malformed window."""


class InsufficientResources(FabricError):
    """Task does not fit on the pilot in its current state."""


class ConfigError(FabricError):
    """Scenario configuration failed validation."""
