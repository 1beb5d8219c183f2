"""Telnet protocol: IAC option negotiation and a session state machine.

Telnet (RFC 854) front-loads an option negotiation of ``IAC DO/WILL/WONT``
triples before any text flows.  Real devices differ in which options they
negotiate and in the login banner that follows — both are exactly what the
paper's scan uses: ZGrab records the negotiation bytes plus the first text,
and the misconfiguration classifier looks for shell prompts (``$``,
``root@xxx:~$``) that indicate consoles with no authentication, while the
honeypot fingerprinter matches known static negotiation+banner prefixes
(Table 6: ``\\xff\\xfd\\x1flogin:`` for Cowrie, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.protocols.base import ProtocolId, ProtocolServer, ServerReply, Session

__all__ = [
    "IAC",
    "DO",
    "DONT",
    "WILL",
    "WONT",
    "SB",
    "SE",
    "subnegotiate",
    "OPT_ECHO",
    "OPT_SUPPRESS_GO_AHEAD",
    "OPT_TERMINAL_TYPE",
    "OPT_WINDOW_SIZE",
    "OPT_LINEMODE",
    "negotiate",
    "strip_iac",
    "TelnetConfig",
    "TelnetServer",
]

IAC = 0xFF
DONT = 0xFE
DO = 0xFD
WONT = 0xFC
WILL = 0xFB
SB = 0xFA
SE = 0xF0

_IAC_BYTE = bytes([IAC])
_IAC_SE = bytes([IAC, SE])

OPT_ECHO = 0x01
OPT_SUPPRESS_GO_AHEAD = 0x03
OPT_TERMINAL_TYPE = 0x18
OPT_WINDOW_SIZE = 0x1F
OPT_LINEMODE = 0x22


def negotiate(commands: Sequence[Tuple[int, int]]) -> bytes:
    """Encode a sequence of (command, option) pairs as IAC triples."""
    out = bytearray()
    for command, option in commands:
        out.extend((IAC, command, option))
    return bytes(out)


def subnegotiate(option: int, payload: bytes) -> bytes:
    """Encode an ``IAC SB <option> ... IAC SE`` subnegotiation block
    (terminal type, window size — RFC 855)."""
    return bytes([IAC, SB, option]) + payload + bytes([IAC, SE])


def strip_iac(data: bytes) -> bytes:
    """Remove IAC commands — triples, subnegotiation blocks, escapes —
    from a byte stream, leaving the text.

    Text between commands is copied a run at a time (``find`` to the
    next IAC), not a byte at a time.
    """
    if IAC not in data:
        return data  # pure text: nothing to strip (the common case)
    out = bytearray()
    index = 0
    length = len(data)
    while index < length:
        found = data.find(_IAC_BYTE, index)
        if found < 0:
            out += data[index:]
            break
        out += data[index:found]
        index = found
        if index + 1 >= length:
            out.append(IAC)  # trailing lone IAC: pass through
            break
        command = data[index + 1]
        if command in (DO, DONT, WILL, WONT) and index + 2 < length:
            index += 3
        elif command == SB:
            # Skip to IAC SE (or end of data when truncated).
            end = data.find(_IAC_SE, index + 2)
            index = end + 2 if end >= 0 else length
        elif command == IAC:
            out.append(IAC)  # escaped 0xFF data byte
            index += 2
        else:
            index += 2
    return bytes(out)


@dataclass
class TelnetConfig:
    """Behavioural knobs for one Telnet endpoint.

    ``auth_required=False`` models the paper's headline misconfiguration:
    connecting drops straight into a shell prompt.  ``shell_prompt`` controls
    whether the unauthenticated console presents as a plain ``$`` or a
    ``root@host:~$`` / ``admin@host:~$`` prompt (Table 2 distinguishes plain
    console access from *root* console access).
    """

    auth_required: bool = True
    credentials: Dict[str, str] = field(default_factory=dict)
    login_banner: str = "login: "
    pre_banner: str = ""  # device greeting before the login prompt
    shell_prompt: str = "$ "
    #: Failed logins tolerated before the server drops the connection;
    #: honeypots set this high to harvest full dictionaries.
    max_attempts: int = 3
    negotiation: Tuple[Tuple[int, int], ...] = (
        (DO, OPT_ECHO),
        (DO, OPT_WINDOW_SIZE),
        (WILL, OPT_ECHO),
        (WILL, OPT_SUPPRESS_GO_AHEAD),
    )
    #: Raw override: when set, the banner is exactly these bytes.  Wild
    #: honeypots use this to reproduce their published static banners.
    raw_banner: Optional[bytes] = None


class TelnetServer(ProtocolServer):
    """Telnet session engine: negotiation, optional login, tiny shell."""

    protocol = ProtocolId.TELNET

    def __init__(self, config: TelnetConfig) -> None:
        self.config = config

    def banner(self) -> bytes:
        if self.config.raw_banner is not None:
            return self.config.raw_banner
        head = negotiate(self.config.negotiation)
        text = ""
        if self.config.pre_banner:
            text += self.config.pre_banner + "\r\n"
        if self.config.auth_required:
            text += self.config.login_banner
        else:
            # Misconfigured: the console is immediately available.
            text += self.config.shell_prompt
        return head + text.encode("utf-8", errors="replace")

    def handle(self, request: bytes, session: Session) -> ServerReply:
        text = strip_iac(request).decode("utf-8", errors="replace").strip()
        return self._step(text, session)

    def handle_repeat(self, request, count, session):
        """Repeated identical requests strip IAC and decode once.

        Flood sessions replay one garbage payload dozens of times; the
        state machine still runs per call (the login cycle mutates
        ``session``), but the byte-level text extraction — the dominant
        per-call cost — hoists out of the loop.  Replies are byte-identical
        to the default loop by construction: each step is the body of
        :meth:`handle` minus the re-parse.
        """
        if count < 2:
            return super().handle_repeat(request, count, session)
        text = strip_iac(request).decode("utf-8", errors="replace").strip()
        replies: List[ServerReply] = []
        for _ in range(count):
            reply = self._step(text, session)
            replies.append(reply)
            if reply.close:
                break
        return replies

    def _step(self, text: str, session: Session) -> ServerReply:
        """Advance the session state machine by one decoded request."""
        if not self.config.auth_required:
            return self._shell(text)
        if session.state in ("new", "await-user"):
            session.username = text
            session.state = "await-password"
            return ServerReply(b"Password: ")
        if session.state == "await-password":
            expected = self.config.credentials.get(session.username)
            if expected is not None and expected == text:
                session.state = "shell"
                return ServerReply(self.config.shell_prompt.encode())
            session.state = "await-user"
            session.attributes["failed"] = str(
                int(session.attributes.get("failed", "0")) + 1
            )
            if int(session.attributes["failed"]) >= self.config.max_attempts:
                return ServerReply(b"Login incorrect\r\n", close=True)
            return ServerReply(b"Login incorrect\r\n" + self.config.login_banner.encode())
        if session.state == "shell":
            return self._shell(text)
        return ServerReply(close=True)

    def _shell(self, command: str) -> ServerReply:
        """A minimal BusyBox-flavoured shell, enough for dropper scripts."""
        prompt = self.config.shell_prompt.encode()
        if not command:
            return ServerReply(prompt)
        name = command.split()[0]
        if name in ("exit", "logout", "quit"):
            return ServerReply(b"Bye\r\n", close=True)
        if name == "echo":
            return ServerReply(command[5:].encode() + b"\r\n" + prompt)
        if name in ("cat", "wget", "curl", "tftp", "busybox", "chmod", "sh", "rm", "cd"):
            # Commands used by IoT droppers: accept silently like BusyBox
            # applets on success.
            return ServerReply(prompt)
        if name == "uname":
            return ServerReply(b"Linux localhost 3.10.14 armv7l\r\n" + prompt)
        return ServerReply(
            b"-sh: " + name.encode(errors="replace") + b": not found\r\n" + prompt
        )
