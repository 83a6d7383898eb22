"""The Information service: astronomy constants of one archive."""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.services.framework import WebService
from repro.skynode.wrapper import ArchiveWrapper


class InformationService(WebService):
    """Publishes the archive's constants (sigma, primary table, columns).

    The Portal calls this once at registration: "Once the Portal
    successfully recognizes a SkyNode, it calls the Information service to
    collect certain astronomy specific constants of that SkyNode."
    """

    def __init__(
        self, wrapper: ArchiveWrapper, *, parser_memory_limit: Optional[int] = None
    ) -> None:
        super().__init__(
            f"{wrapper.info.archive}Information",
            parser_memory_limit=parser_memory_limit,
        )
        self._wrapper = wrapper
        self.register(
            "GetInfo",
            self._get_info,
            returns="struct",
            doc="Positional error sigma, primary table/columns, object count.",
        )
        self.register(
            "IsAlive",
            self._is_alive,
            returns="boolean",
            doc="Lightweight health probe; the Portal pings it mid-chain.",
        )

    def _get_info(self) -> Dict[str, Any]:
        return self._wrapper.info_wire()

    def _is_alive(self) -> bool:
        return True
