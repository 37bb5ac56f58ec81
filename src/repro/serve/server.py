"""TCP front-end of the serve core.

One :class:`AirFingerServer` multiplexes N device connections over a
single event loop into a shared :class:`~repro.serve.session.SessionManager`.
Every serving semantic — handshake, message dispatch, the per-session
pump, idle eviction, telemetry — lives in
:class:`~repro.serve.core.ServeCore`; this module only adapts a byte
stream to it: a reader task per connection feeds the socket through one
:class:`~repro.serve.protocol.MessageDecoder` and hands each message to
the core, and the connection's :class:`~repro.serve.core.Link` writes
length-framed messages back.  A protocol violation is answered with a
terminal ``error`` after the pump has sent the events of every frame
already queued, then the connection closes.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.serve import protocol
from repro.serve.core import Link, ServeCore

__all__ = ["AirFingerServer"]


class _StreamLink(Link):
    """A connection's link: writes length-framed messages to its socket."""

    __slots__ = ("writer",)

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        super().__init__()
        self.writer = writer

    async def send(self, message: dict) -> None:
        self.writer.write(protocol.encode_message(message))
        await self.writer.drain()

    def close(self) -> None:
        with contextlib.suppress(Exception):
            self.writer.close()


class AirFingerServer(ServeCore):
    """TCP server speaking the :mod:`repro.serve.protocol` wire format.

    Takes the :class:`~repro.serve.core.ServeCore` parameters;
    ``reuse_port`` lets several server processes share one port and the
    kernel balance incoming connections across them (the shard
    front-end's preferred mode on platforms that have it).
    """

    _server: asyncio.AbstractServer | None = None

    async def _bind(self) -> None:
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _unbind(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        link = _StreamLink(writer)
        decoder = protocol.MessageDecoder()
        error = None
        try:
            while not link.closing:
                data = await reader.read(65536)
                if not data:
                    break
                for message in decoder.feed(data):
                    if link.session is None:
                        link.closing = not await self._open(link, message)
                    else:
                        await self._handle_message(link, message)
                    if link.closing:
                        break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; eviction reaps the session later
        except protocol.ProtocolError as exc:
            error = ("protocol", str(exc))
        except Exception as exc:
            error = ("internal", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            # the pump sends what is already queued (and the bye tail)
            # before a terminal error goes out and the socket closes
            link.closing = True
            link.wake.set()
            if link.pump is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await link.pump
            if error is not None:
                await self._send_error(link, *error)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
