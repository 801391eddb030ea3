"""Discrete-event edge testbed substrate.

Replaces the Jetson/Triton/WiFi testbed of §5.1.  Periodic video streams
emit frames; each frame is serialized over its camera's uplink to the
assigned edge server, queued FIFO, and processed for the stream's
per-frame processing time.  The engine records per-frame end-to-end
latency, queueing delay (jitter), server utilization, and energy — the
exact observables the paper's scheduler consumes, including the
contention pathologies of Figures 3(a) and 4 that the zero-jitter
constraint removes.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.server import EdgeServer
from repro.sim.network import UplinkLink
from repro.sim.cluster import EdgeCluster, StreamSpec
from repro.sim.metrics import StreamMetrics, ServerMetrics, SimulationReport
from repro.sim.runner import simulate_schedule

__all__ = [
    "Event",
    "EventQueue",
    "EdgeServer",
    "UplinkLink",
    "EdgeCluster",
    "StreamSpec",
    "StreamMetrics",
    "ServerMetrics",
    "SimulationReport",
    "simulate_schedule",
]
