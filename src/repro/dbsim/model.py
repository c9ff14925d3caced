"""Distributed database client/server on the simulated machine.

The Section-4.2.3 example: "in a distributed database system, if a server
process performs disk reads on behalf of clients, then we may wish to
measure server disk reads that correspond to a particular client or a
particular query."

The client runs on node 0, the server on node 1; queries travel as network
messages.  Each side owns its own SAS (the per-node replication of Section
4.2.3); only sentence forwarding connects them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.nouns import AbstractionLevel, Noun, Sentence, Verb, Vocabulary

__all__ = [
    "DB_LEVEL",
    "Query",
    "db_vocabulary",
    "query_active",
    "server_disk_read",
]

DB_LEVEL = AbstractionLevel(1, "Database", "client queries and server activities")
DISK_LEVEL = AbstractionLevel(0, "DB Server", "physical server activities")

QUERY_ACTIVE = Verb("QueryActive", "Database", "a client query is outstanding")
DISK_READ = Verb("DiskRead", "DB Server", "server reads a page from disk")


@dataclass(frozen=True)
class Query:
    """One client query and its ground-truth server work."""

    name: str
    disk_reads: int
    read_time: float = 3e-4
    request_bytes: int = 256
    response_bytes: int = 2048

    def __post_init__(self) -> None:
        if self.disk_reads < 0:
            raise ValueError("negative disk reads")


def db_vocabulary() -> Vocabulary:
    """Vocabulary with the database study's two levels and verbs."""
    vocab = Vocabulary.with_levels([DISK_LEVEL, DB_LEVEL])
    vocab.add_verb(QUERY_ACTIVE)
    vocab.add_verb(DISK_READ)
    return vocab


def query_active(name: str, client: int | None = None) -> Sentence:
    """The sentence the client's SAS holds while a query is outstanding.

    With ``client`` given, the issuing client participates as a second noun,
    so questions can constrain by query, by client, or both.
    """
    nouns = [Noun(name, "Database", f"client query {name}")]
    if client is not None:
        nouns.append(Noun(f"client{client}", "Database", f"database client {client}"))
    return Sentence(QUERY_ACTIVE, tuple(nouns))


def server_disk_read(server: str = "server0") -> Sentence:
    """The sentence the server's SAS holds during each disk read."""
    return Sentence(DISK_READ, (Noun(server, "DB Server", f"database server {server}"),))
