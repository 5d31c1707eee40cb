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

**Determinism.** Each table (and the RF1 insert stream) draws from its
own ``random.Random(seed + k)``. Its values depend only on that
stream's ``getrandbits``/``random()`` outputs and on the order of the
draws, which ``_Draws`` makes exactly as ``randint``, ``choice`` and
``uniform`` would. ``tests/workloads/test_tpch.py`` pins the bytes of
every table file and statement file at seed 7, and
``tests/workloads/test_draws.py`` checks the draws against ``Random``
value for value.
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


def _bits(n: int) -> int:
    """Bit width of one draw below ``n``, as ``Random._randbelow`` uses."""
    if n <= 0:
        raise ValueError(f"empty range of {n} values")
    return n.bit_length()


class _Draws:
    """Zero-argument draw functions over one ``random.Random(seed)``.

    ``ints``, ``choice`` and ``uniform`` make exactly the ``getrandbits``
    and ``random()`` calls that ``randint``, ``choice`` and ``uniform``
    make for the same arguments (a draw below ``n`` takes ``n.bit_length()``
    bits and redraws while the value is ``>= n``), so any interleaving of
    draws yields the values of the same ``Random`` calls, at one Python
    call per value. ``comment`` and ``date`` are built from them.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._getrandbits = rng.getrandbits
        self._random = rng.random

    def ints(self, low: int, high: int):
        """``randint(low, high)``."""
        n = high - low + 1
        bits = _bits(n)
        getrandbits = self._getrandbits

        def draw() -> int:
            value = getrandbits(bits)
            while value >= n:
                value = getrandbits(bits)
            return low + value
        return draw

    def choice(self, values):
        """``choice(values)``."""
        n = len(values)
        bits = _bits(n)
        getrandbits = self._getrandbits

        def draw():
            index = getrandbits(bits)
            while index >= n:
                index = getrandbits(bits)
            return values[index]
        return draw

    def uniform(self, low: float, high: float):
        """``uniform(low, high)``."""
        span = high - low
        rand = self._random
        return lambda: low + span * rand()

    def comment(self, words: int):
        """``words`` words of the comment vocabulary, space-joined."""
        word = self.choice(_WORDS)
        count = range(words)
        return lambda: " ".join([word() for _ in count])

    def date(self):
        """An ISO date in 1992-1998 (days 1-28, so every month has it)."""
        year, month, day = (self.ints(1992, 1998), self.ints(1, 12),
                            self.ints(1, 28))
        return lambda: f"{year():04d}-{month():02d}-{day():02d}"


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
    #
    # Each generator builds its draws once, before its loop, and calls them
    # in the order the row's columns are drawn.

    def region_rows(self):
        comment = _Draws(self.config.seed + 1).comment(3)
        for key, name in enumerate(_REGIONS):
            yield (key, name, comment())

    def nation_rows(self):
        comment = _Draws(self.config.seed + 2).comment(3)
        for key, name in enumerate(_NATIONS):
            yield (key, name, key % len(_REGIONS), comment())

    def supplier_rows(self):
        draws = _Draws(self.config.seed + 3)
        street = draws.ints(1, 999)
        nation = draws.ints(0, len(_NATIONS) - 1)
        area, exchange, line = (draws.ints(10, 34), draws.ints(100, 999),
                                draws.ints(1000, 9999))
        balance = draws.uniform(-999.99, 9999.99)
        comment = draws.comment(4)
        for key in range(1, self.config.n_suppliers + 1):
            yield (key, f"Supplier#{key:09d}",
                   f"{street()} supply st",
                   nation(),
                   f"{area()}-{exchange()}-{line()}",
                   round(balance(), 2),
                   comment())

    def part_rows(self):
        draws = _Draws(self.config.seed + 4)
        name = draws.comment(2)
        one_to_five = draws.ints(1, 5)
        finish = draws.choice(["STANDARD", "SMALL", "LARGE"])
        coating = draws.choice(["PLATED", "BRUSHED"])
        metal = draws.choice(["TIN", "NICKEL", "BRASS"])
        size = draws.ints(1, 50)
        box_size = draws.choice(["SM", "MED", "LG"])
        box = draws.choice(["BOX", "BAG", "JAR"])
        comment = draws.comment(4)
        for key in range(1, self.config.n_parts + 1):
            yield (key, f"part {name()}",
                   f"Manufacturer#{one_to_five()}",
                   f"Brand#{one_to_five()}{one_to_five()}",
                   f"{finish()} {coating()} {metal()}",
                   size(),
                   f"{box_size()} {box()}",
                   round(900 + key / 10 % 100 + 100 * (key % 10), 2),
                   comment())

    def partsupp_rows(self):
        draws = _Draws(self.config.seed + 5)
        available = draws.ints(1, 9999)
        cost = draws.uniform(1.0, 1000.0)
        comment = draws.comment(4)
        for part_key in range(1, self.config.n_parts + 1):
            for offset in range(4):
                supp_key = 1 + (part_key + offset *
                                (self.config.n_suppliers // 4 + 1)
                                ) % self.config.n_suppliers
                yield (part_key, supp_key, available(),
                       round(cost(), 2),
                       comment())

    def customer_rows(self):
        draws = _Draws(self.config.seed + 6)
        width = self.config.customer_name_width
        street = draws.ints(1, 999)
        nation = draws.ints(0, len(_NATIONS) - 1)
        area, exchange, line = (draws.ints(10, 34), draws.ints(100, 999),
                                draws.ints(1000, 9999))
        balance = draws.uniform(-999.99, 9999.99)
        segment = draws.choice(_SEGMENTS)
        comment = draws.comment(4)
        for key in range(1, self.config.n_customers + 1):
            yield (key, customer_name(key, width),
                   f"{street()} main st",
                   nation(),
                   f"{area()}-{exchange()}-{line()}",
                   round(balance(), 2),
                   segment(),
                   comment())

    def order_rows(self, keys, draws: _Draws):
        """One order row per key, drawn from ``draws`` (shared by the
        loaded orders and the RF1 insert stream)."""
        customer = draws.ints(1, self.config.n_customers)
        status = draws.choice(["O", "F", "P"])
        total = draws.uniform(800.0, 500000.0)
        date = draws.date()
        priority = draws.choice(_PRIORITIES)
        clerk = draws.ints(1, 1000)
        comment = draws.comment(4)
        for key in keys:
            yield (key, customer(),
                   status(),
                   round(total(), 2),
                   date(),
                   priority(),
                   f"Clerk#{clerk():09d}",
                   0,
                   comment())

    def orders_rows(self):
        return self.order_rows(range(1, self.config.n_orders + 1),
                               _Draws(self.config.seed + 7))

    def lineitem_rows(self):
        draws = _Draws(self.config.seed + 8)
        lines = draws.ints(1, 7)
        quantity = draws.ints(1, 50)
        unit_price = draws.uniform(900.0, 1100.0)
        part = draws.ints(1, self.config.n_parts)
        supplier = draws.ints(1, self.config.n_suppliers)
        discount = draws.uniform(0.0, 0.1)
        tax = draws.uniform(0.0, 0.08)
        return_flag = draws.choice(["R", "A", "N"])
        status = draws.choice(["O", "F"])
        date = draws.date()
        instruct = draws.choice(_INSTRUCTS)
        mode = draws.choice(_SHIPMODES)
        comment = draws.comment(4)
        for order_key in range(1, self.config.n_orders + 1):
            for line_number in range(1, lines() + 1):
                # the price is drawn before the part and the supplier
                qty = float(quantity())
                price = round(qty * unit_price(), 2)
                yield (order_key,
                       part(),
                       supplier(),
                       line_number,
                       qty,
                       price,
                       round(discount(), 2),
                       round(tax(), 2),
                       return_flag(),
                       status(),
                       date(),
                       date(),
                       date(),
                       instruct(),
                       mode(),
                       comment())

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
