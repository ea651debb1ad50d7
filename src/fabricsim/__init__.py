"""fabricsim: a log-based, delay-tolerant distributed runtime simulator.

Append-only logs with exactly-once remote append, handler- and dataflow-based
computation over them, a deterministic network model, a PRB slicing sweep, and a
pilot-job batch facility, exercised end to end by a telemetry
change-detection pipeline.
"""

__version__ = "0.1.0"
