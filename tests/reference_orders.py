"""A plain reading of ``orders.csv``, the reference its loader and the
week split are tested against.

It reads the file with ``csv.reader`` and nothing else of the package:
lines group by ``order_no`` in first-appearance order, and an order's
week is ``(local date - first local date).days // 7``, each date read in
its own offset.  It checks each row by the rules the README states (five
cells, a date, every time naive or every time with an offset, a whole
quantity of at least 1, a known item, the date and truck of the order's
first line) and reports the first bad row by the line of the file it
starts on.  The pick sequence of a week follows the README rule: trucks
in the order of their first row, each truck's orders in reverse file
order.
"""

from __future__ import annotations

import csv
from datetime import datetime
from typing import NamedTuple

HEADER = ["order_datetime", "order_no", "truck_id", "item_code", "qty"]


class RefOrder(NamedTuple):
    order_no: str
    when: datetime
    truck_id: str
    lines: list[tuple[str, int]]


class Reading(NamedTuple):
    """The orders of a file in first-appearance order, and the line the
    first bad row starts on (``None`` when every row is good)."""

    orders: list[RefOrder]
    bad_line: int | None


def read_orders(path: str, items) -> Reading:
    orders: dict[str, RefOrder] = {}
    kinds: set[bool] = set()  # whether each time read has an offset
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        assert next(rows) == HEADER
        start = rows.line_num + 1  # the line the next row starts on
        for cells in rows:
            row_start, start = start, rows.line_num + 1
            if not cells:
                continue
            if len(cells) != len(HEADER):
                return Reading(list(orders.values()), row_start)
            text, order_no, truck_id, item, qty = cells
            try:
                when = datetime.fromisoformat(text)
                kinds.add(when.tzinfo is not None)
                pieces = int(qty)
            except ValueError:
                return Reading(list(orders.values()), row_start)
            first = orders.get(order_no)
            if (len(kinds) > 1 or pieces < 1 or item not in items
                    or first is not None and (when, truck_id) != (first.when, first.truck_id)):
                return Reading(list(orders.values()), row_start)
            if first is None:
                first = orders[order_no] = RefOrder(order_no, when, truck_id, [])
            first.lines.append((item, pieces))
    return Reading(list(orders.values()), None)


def week_buckets(orders: list[RefOrder]) -> dict[int, list[RefOrder]]:
    """Week index -> that week's orders, in file order; weeks without
    orders are absent."""
    if not orders:
        return {}
    first = min(order.when.date() for order in orders)
    weeks: dict[int, list[RefOrder]] = {}
    for order in orders:
        weeks.setdefault((order.when.date() - first).days // 7, []).append(order)
    return weeks


def pick_sequence(week: list[RefOrder]) -> list[str]:
    """The order numbers of one week in the sequence they are picked."""
    trucks: dict[str, list[str]] = {}
    for order in week:
        trucks.setdefault(order.truck_id or f"#solo:{order.order_no}", []).append(order.order_no)
    return [no for orders in trucks.values() for no in reversed(orders)]
