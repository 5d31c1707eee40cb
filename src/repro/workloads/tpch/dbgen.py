"""Deterministic TPC-H data generator (the ``dbgen`` stand-in).

Cardinalities follow the TPC-H specification scaled by ``scale_factor``
(SF 1 = 150 k customers, 1.5 M orders, ~6 M lineitems, 10 k suppliers).
A pure-Python executor cannot drive benchmark loops over SF 1, so the
experiments use small SFs; all of the paper's measures are ratios
(selectivities, package-size orderings), which are scale-invariant.

**Selectivity-faithful customer names.** Table II's Q2/Q3 control
selectivity through ``c_name LIKE '%00..0%'``: with 9-digit zero-padded
customer numbers and 150 k customers, a run of 4/5/6/7 zeros matches
66 % / 6.6 % / 0.66 % / 0.066 % of customers. To keep those exact
fractions at any scale, the generator pads customer numbers to
``round(log10(n_customers * 2/3)) + 4`` digits — at SF 1 that is the
spec's 9 digits, and the match fraction of a ``z``-zero run stays
``10^(w-z) / n``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.db.engine import Database
from repro.workloads.tpch import schema

_NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
             "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
               "5-LOW"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_INSTRUCTS = ["DELIVER IN PERSON", "COLLECT COD", "NONE",
              "TAKE BACK RETURN"]
_WORDS = ("carefully final deposits sleep quickly bold accounts wake "
          "furiously regular requests nag blithely ironic packages "
          "among the slyly express instructions boost").split()


@dataclass(frozen=True)
class TPCHConfig:
    """Generator parameters."""

    scale_factor: float = 0.001
    seed: int = 20150413  # ICDE 2015 opened on April 13

    @property
    def n_customers(self) -> int:
        return max(3, round(150_000 * self.scale_factor))

    @property
    def n_orders(self) -> int:
        return max(3, round(1_500_000 * self.scale_factor))

    @property
    def n_suppliers(self) -> int:
        # floor of 100 keeps the five Q1/Q4 selectivities (1..25 % of
        # suppliers, Table II) distinct even at tiny scale factors
        return max(100, round(10_000 * self.scale_factor))

    @property
    def n_parts(self) -> int:
        return max(4, round(200_000 * self.scale_factor))

    @property
    def customer_name_width(self) -> int:
        """Zero-pad width keeping the Table II LIKE selectivities."""
        return max(len(str(self.n_customers)),
                   round(math.log10(self.n_customers * 2 / 3)) + 4)


def customer_name(key: int, width: int) -> str:
    return f"Customer#{key:0{width}d}"


class TPCHGenerator:
    """Generates the full TPC-H database deterministically."""

    def __init__(self, config: TPCHConfig | None = None) -> None:
        self.config = config or TPCHConfig()

    # -- row generators -------------------------------------------------------------

    def _comment(self, rng: random.Random, words: int = 4) -> str:
        return " ".join(rng.choice(_WORDS) for _ in range(words))

    def _date(self, rng: random.Random) -> str:
        year = rng.randint(1992, 1998)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        return f"{year:04d}-{month:02d}-{day:02d}"

    def region_rows(self):
        rng = random.Random(self.config.seed + 1)
        for key, name in enumerate(_REGIONS):
            yield (key, name, self._comment(rng, 3))

    def nation_rows(self):
        rng = random.Random(self.config.seed + 2)
        for key, name in enumerate(_NATIONS):
            yield (key, name, key % len(_REGIONS), self._comment(rng, 3))

    def supplier_rows(self):
        rng = random.Random(self.config.seed + 3)
        for key in range(1, self.config.n_suppliers + 1):
            yield (key, f"Supplier#{key:09d}",
                   f"{rng.randint(1, 999)} supply st",
                   rng.randrange(len(_NATIONS)),
                   f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-"
                   f"{rng.randint(1000, 9999)}",
                   round(rng.uniform(-999.99, 9999.99), 2),
                   self._comment(rng))

    def part_rows(self):
        rng = random.Random(self.config.seed + 4)
        for key in range(1, self.config.n_parts + 1):
            yield (key, f"part {self._comment(rng, 2)}",
                   f"Manufacturer#{rng.randint(1, 5)}",
                   f"Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}",
                   f"{rng.choice(['STANDARD', 'SMALL', 'LARGE'])} "
                   f"{rng.choice(['PLATED', 'BRUSHED'])} "
                   f"{rng.choice(['TIN', 'NICKEL', 'BRASS'])}",
                   rng.randint(1, 50),
                   f"{rng.choice(['SM', 'MED', 'LG'])} "
                   f"{rng.choice(['BOX', 'BAG', 'JAR'])}",
                   round(900 + key / 10 % 100 + 100 * (key % 10), 2),
                   self._comment(rng))

    def partsupp_rows(self):
        rng = random.Random(self.config.seed + 5)
        for part_key in range(1, self.config.n_parts + 1):
            for offset in range(4):
                supp_key = 1 + (part_key + offset *
                                (self.config.n_suppliers // 4 + 1)
                                ) % self.config.n_suppliers
                yield (part_key, supp_key, rng.randint(1, 9999),
                       round(rng.uniform(1.0, 1000.0), 2),
                       self._comment(rng))

    def customer_rows(self):
        rng = random.Random(self.config.seed + 6)
        width = self.config.customer_name_width
        for key in range(1, self.config.n_customers + 1):
            yield (key, customer_name(key, width),
                   f"{rng.randint(1, 999)} main st",
                   rng.randrange(len(_NATIONS)),
                   f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-"
                   f"{rng.randint(1000, 9999)}",
                   round(rng.uniform(-999.99, 9999.99), 2),
                   rng.choice(_SEGMENTS),
                   self._comment(rng))

    def order_row(self, key: int, rng: random.Random) -> tuple:
        return (key, rng.randint(1, self.config.n_customers),
                rng.choice(["O", "F", "P"]),
                round(rng.uniform(800.0, 500000.0), 2),
                self._date(rng),
                rng.choice(_PRIORITIES),
                f"Clerk#{rng.randint(1, 1000):09d}",
                0,
                self._comment(rng))

    def orders_rows(self):
        rng = random.Random(self.config.seed + 7)
        for key in range(1, self.config.n_orders + 1):
            yield self.order_row(key, rng)

    def lineitem_rows(self):
        rng = random.Random(self.config.seed + 8)
        for order_key in range(1, self.config.n_orders + 1):
            for line_number in range(1, rng.randint(1, 7) + 1):
                quantity = float(rng.randint(1, 50))
                price = round(quantity * rng.uniform(900.0, 1100.0), 2)
                yield (order_key,
                       rng.randint(1, self.config.n_parts),
                       rng.randint(1, self.config.n_suppliers),
                       line_number,
                       quantity,
                       price,
                       round(rng.uniform(0.0, 0.1), 2),
                       round(rng.uniform(0.0, 0.08), 2),
                       rng.choice(["R", "A", "N"]),
                       rng.choice(["O", "F"]),
                       self._date(rng),
                       self._date(rng),
                       self._date(rng),
                       rng.choice(_INSTRUCTS),
                       rng.choice(_SHIPMODES),
                       self._comment(rng))

    # -- loading ----------------------------------------------------------------------

    def generate_into(self, database: Database) -> dict[str, int]:
        """Create the schema and load every table.

        Loads through the storage layer directly, one batch insert
        per table (this is the DBA's offline load, not part of the
        monitored application), and returns per-table row counts.
        """
        schema.create_all(database)
        generators = {
            "region": self.region_rows,
            "nation": self.nation_rows,
            "supplier": self.supplier_rows,
            "part": self.part_rows,
            "partsupp": self.partsupp_rows,
            "customer": self.customer_rows,
            "orders": self.orders_rows,
            "lineitem": self.lineitem_rows,
        }
        counts: dict[str, int] = {}
        tick = database.clock.tick()
        for table_name in schema.TABLE_ORDER:
            heap = database.catalog.get_table(table_name)
            rowids = heap.insert_many(generators[table_name](), tick)
            database.catalog.mark_dirty(table_name)
            counts[table_name] = len(rowids)
        return counts
