"""Serverless platform substrate: discrete-event simulator of AWS Lambda."""

from repro.faas.billing import BillingMeter, InvocationBill
from repro.faas.function import FunctionInstance, WarmPool
from repro.faas.noise import NoiseModel
from repro.faas.platform import EpochExecution, FaaSPlatform, InvocationResult
from repro.faas.trace import TraceEvent, TraceRecorder, trace_epochs
from repro.kernel.core import Resource

__all__ = [
    "BillingMeter",
    "EpochExecution",
    "FaaSPlatform",
    "FunctionInstance",
    "InvocationBill",
    "InvocationResult",
    "NoiseModel",
    "Resource",
    "TraceEvent",
    "TraceRecorder",
    "WarmPool",
    "trace_epochs",
]
