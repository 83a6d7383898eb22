"""The Query service: general-purpose SQL against one archive."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.services.chunked import ChunkedSender
from repro.services.framework import WebService
from repro.skynode.wrapper import ArchiveWrapper
from repro.soap.encoding import ColumnarRowSet
from repro.sql.parser import parse_query


class QueryService(WebService):
    """Executes single-archive SQL, returning a rowset.

    "The Query service is a general-purpose database querying service. In
    our case, it is used by the Portal to answer performance queries" —
    the count-star probes that both size the plan and warm the cache.

    ``ExecuteQueryChunked`` serves large results the same way the chain
    does: pull-based federations hit the very same XML parser ceiling, so
    they need the very same workaround.
    """

    def __init__(
        self,
        wrapper: ArchiveWrapper,
        *,
        parser_memory_limit: Optional[int] = None,
        chunk_budget_bytes: Optional[int] = None,
        processing_charge: Optional[Callable[[int], None]] = None,
    ) -> None:
        super().__init__(
            f"{wrapper.info.archive}Query",
            parser_memory_limit=parser_memory_limit,
        )
        self._wrapper = wrapper
        self._processing_charge = processing_charge
        self.sender = ChunkedSender(
            f"{wrapper.info.archive}-q", chunk_budget_bytes
        )
        self.register(
            "ExecuteQuery",
            self._execute,
            params=(("sql", "string"),),
            returns="rowset",
            doc="Run a single-table query in the SkyQuery SQL dialect.",
        )
        self.register(
            "ExecuteQueryPinned",
            self._execute_pinned,
            params=(("sql", "string"), ("epoch", "int")),
            returns="struct",
            doc=(
                "Run a query pinned to a snapshot epoch; -1 pins the "
                "current committed epoch, which is echoed back."
            ),
        )
        self.register(
            "ExecuteQueryChunked",
            self._execute_chunked,
            params=(("sql", "string"),),
            returns="struct",
            doc="Run a query, chunking large results for the caller.",
        )
        self.sender.mount(self, "query result")

    def _run(self, sql: str, epoch: Optional[int] = None) -> ColumnarRowSet:
        """The one reply point: every answer travels as a ``colset``."""
        query = parse_query(sql)
        result = self._wrapper.execute_ast(query, epoch=epoch)
        if self._processing_charge is not None:
            self._processing_charge(result.stats.rows_examined)
        return ColumnarRowSet(self._wrapper.resultset_to_wire(result, query))

    def _execute(self, sql: str) -> ColumnarRowSet:
        return self._run(sql)

    def _execute_pinned(self, sql: str, epoch: int = -1) -> Dict[str, Any]:
        """Run a query at a pinned epoch, echoing the epoch served.

        The Portal's count-star probes use ``epoch = -1`` ("whatever is
        committed right now") and record the echoed epoch into the plan,
        so every later hop of the chain reads the same snapshot the plan
        was sized against.
        """
        pinned = self._wrapper.db.committed_epoch if epoch < 0 else int(epoch)
        return {"rows": self._run(sql, epoch=pinned), "epoch": pinned}

    def _execute_chunked(self, sql: str) -> Dict[str, Any]:
        return self.sender.respond(self.sender.prepare(self._run(sql)))
