"""Deterministic fault-injection harness for robustness testing."""

from repro.testing.faults import (
    Fault,
    InjectedFault,
    compose_injectors,
    corrupt_bytes,
    injector_from_spec,
    truncate_file,
)

__all__ = [
    "Fault",
    "InjectedFault",
    "compose_injectors",
    "corrupt_bytes",
    "injector_from_spec",
    "truncate_file",
]
