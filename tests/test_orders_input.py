"""``load_orders`` and the week split against the plain reading in
``reference_orders.py``, on drawn ``orders.csv`` files."""

from __future__ import annotations

import csv
import io
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_item
from reference_orders import read_orders, week_buckets
from picksim import InputDataError, ParseError, load_orders
from picksim.experiment import _spanned_weeks, demand_per_week

ITEMS = {code: make_item(code) for code in ("A", "B,1", 'C"2', "D\n3", "E\r\n4")}
ORDER_NOS = ("O1", "O,2", "O 3", 'O"4', "O5", "O6", "O\n7", "O\r\n8")
TRUCKS = ("T1", "T,2", "", "T\n3", "T\r\n4")
OFFSETS = ("+02:00", "-05:00", "+00:00")
DEFECTS = ("cells", "qty-0", "qty-text", "item", "truck", "date", "offset", "time")


@st.composite
def orders_files(draw):
    """The text of an ``orders.csv``: its orders' lines in a drawn order, so
    an order's lines need not be adjacent, with blank lines, ``\\n`` or
    ``\\r\\n`` endings, cells quoted where they hold a comma, a quote or a
    line break (an order number, truck or item code may hold ``\\n`` or
    ``\\r\\n``, so its row spans lines), every time naive or every time
    with an offset, a later line of an order writing its time with a ``T``
    now and then (the same instant), and perhaps one defect in one row."""
    offset = draw(st.booleans())
    rows = []
    for order_no in draw(st.lists(st.sampled_from(ORDER_NOS), min_size=1, max_size=5,
                                  unique=True)):
        day = date(2024, 6, 3) + timedelta(days=draw(st.integers(0, 27)))
        text = f"{day} {draw(st.integers(0, 23)):02d}:00:00"
        if offset:
            text += draw(st.sampled_from(OFFSETS))
        truck = draw(st.sampled_from(TRUCKS))
        for k in range(draw(st.integers(1, 3))):
            written = text.replace(" ", "T") if k and draw(st.booleans()) else text
            rows.append([written, order_no, truck, draw(st.sampled_from(sorted(ITEMS))),
                         str(draw(st.integers(1, 9)))])
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        defect = draw(st.sampled_from(DEFECTS))
        if defect == "cells":
            del row[-1]
        elif defect == "qty-0":
            row[4] = "0"
        elif defect == "qty-text":
            row[4] = "1.5"
        elif defect == "item":
            row[3] = "NOPE"
        elif defect == "truck":
            row[2] += "X"
        elif defect == "date":
            row[0] = row[0].replace("2024", "2023")
        elif defect == "offset":
            row[0] = row[0][:19] if offset else row[0] + "+01:00"
        else:
            row[0] = row[0].replace(":00:00", "h")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(["order_datetime", "order_no", "truck_id", "item_code", "qty"])
    for row in rows:
        if draw(st.booleans()):
            writer.writerow([])
        writer.writerow(row)
    return out.getvalue()


@pytest.fixture(scope="module")
def path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("orders") / "orders.csv")


@settings(max_examples=60, deadline=None)
@given(text=orders_files())
def test_orders_load_and_split_as_the_plain_reading_does(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    reading = read_orders(path, ITEMS)
    if reading.bad_line is not None:
        with pytest.raises((ParseError, InputDataError)) as exc:
            load_orders(path, ITEMS)
        assert str(exc.value).startswith(f"{path}:{reading.bad_line}: ")
        return
    orders = load_orders(path, ITEMS)
    assert [(o.order_no, o.order_datetime, o.truck_id, [tuple(line) for line in o.lines])
            for o in orders] == [tuple(order) for order in reading.orders]
    want = week_buckets(reading.orders)
    spanned = _spanned_weeks(orders)
    assert len(spanned) == max(want) + 1
    for week, (bucket, first_date) in enumerate(spanned):
        ref = want.get(week, [])
        assert [o.order_no for o in bucket] == [order.order_no for order in ref]
        assert first_date == min((order.when.date() for order in ref), default=None)


@settings(max_examples=60, deadline=None)
@given(text=orders_files(), weeks=st.integers(1, 4))
def test_demand_per_week_is_a_plain_count_of_the_lines(path, text, weeks):
    """Per item, the order lines over ``weeks``, keyed in the order the
    items first appear in the orders' lines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    reading = read_orders(path, ITEMS)
    if reading.bad_line is not None:
        return
    counts: dict[str, int] = {}
    for order in reading.orders:
        for item, _ in order.lines:
            counts[item] = counts.get(item, 0) + 1
    assert list(demand_per_week(load_orders(path, ITEMS), weeks).items()) == [
        (item, n / weeks) for item, n in counts.items()]
