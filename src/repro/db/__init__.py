"""A from-scratch relational DBMS with Perm-style provenance support.

This package is the substrate standing in for PostgreSQL + Perm in the
LDV paper. It provides:

* a SQL dialect covering everything the paper's workload needs
  (``repro.db.sql``),
* versioned heap storage persisted to an on-disk data directory
  (:mod:`repro.db.storage`),
* a pull-based executor with optional *lineage propagation*
  (:mod:`repro.db.executor`),
* Perm's ``SELECT PROVENANCE`` (lineage propagation switched on per
  statement; the DB monitor builds GProM-style update *reenactment*
  queries on top of it),
* the ``prov_rowid``/``prov_v``/``prov_usedby``/``prov_p`` versioning
  columns of Section VII-B (:mod:`repro.db.versioning`),
* a libpq-like client/server protocol with interposition hooks
  (:mod:`repro.db.protocol`, :mod:`repro.db.client`,
  :mod:`repro.db.server`),
* sessions with one open transaction at a time, whose private
  write-set gives ROLLBACK and read-your-own-writes; other sessions'
  writes are refused with a retryable error until it ends
  (:mod:`repro.db.mvcc`).

The top-level façade is :class:`repro.db.engine.Database`.
"""

from repro.db.engine import Database
from repro.db.fileio import FileIO
from repro.db.mvcc import Session
from repro.db.types import Column, Schema, SQLType
from repro.db.client import DBClient, Interceptor, RetryPolicy
from repro.db.server import DBServer
from repro.db.wal import WriteAheadLog

__all__ = [
    "Database",
    "Column",
    "FileIO",
    "Schema",
    "Session",
    "SQLType",
    "DBClient",
    "DBServer",
    "Interceptor",
    "RetryPolicy",
    "WriteAheadLog",
]
