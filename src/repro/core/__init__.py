"""Public facade for the AIQL reproduction."""

from repro.core.config import SCHEDULINGS, SystemConfig
from repro.core.investigate import InvestigationSession, InvestigationStep
from repro.core.system import AIQLSystem

__all__ = [
    "AIQLSystem",
    "InvestigationSession",
    "InvestigationStep",
    "SCHEDULINGS",
    "SystemConfig",
]
