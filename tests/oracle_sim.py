"""Brute-force reference simulator used to cross-check the event engine.

This is a from-scratch re-implementation of the simulator's semantics
with none of the package's machinery: no event heap (a pending list is
re-sorted on every pop), no warehouse/policy classes (plain dicts), no
shared arithmetic helpers.  It intentionally repeats the documented
time-accounting convention operation by operation, so per-order
completion times must match the engine bit for bit.

Inputs are primitives plus read-only layout/item rows; orders come in
as plain ``(order_no, truck_id, [(item, qty), ...])`` tuples so the
engine's mutable order objects are never shared with the oracle.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

ENTRANCE = (-1, 0, 0)
DROPOFF = (-1, 0, 1)
ELEVATOR = (-1, 0, 2)


class OracleSim:
    def __init__(self, layout, items, initial, policy_kind: str, slot_map,
                 orders, mode: str, cfg, seed: int, start: date):
        self.locs = {loc.id: loc for loc in layout}
        self.slots = {loc.id: loc for loc in layout if loc.id[0] != -1}
        self.items = {it.code: it for it in items}
        self.inv: dict[tuple, list] = {}
        for lid, code, qty, mfg in initial:
            assert lid not in self.inv, "fixture places two pallets on one slot"
            self.inv[lid] = [code, qty, mfg]
        self.policy_kind = policy_kind
        self.slot_map = slot_map or {}
        self.mode = mode
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.start = start

        # walking equipment parameters straight from the config fields
        self.wspeed, self.wlift, self.wturn = cfg.sps, cfg.Lsps, cfg.tts
        # put-away always rides the stacker
        self.pspeed, self.plift, self.pturn = cfg.sps, cfg.Lsps, cfg.tts

        self.plans = self._plan(orders)
        self.completions: list[float | None] = [None] * len(self.plans)
        self.order_nos = [p["no"] for p in self.plans]
        self.waiting_s = 0.0

    # -- independent primitives -------------------------------------------

    def _travel(self, a, b, speed, lift, turn_s) -> float:
        t = (abs(a.x_cm - b.x_cm) + abs(a.y_cm - b.y_cm)) / speed
        dz = abs(a.z_cm - b.z_cm)
        if dz:
            assert lift > 0, "fixture sends non-lifting equipment to an upper layer"
            t += dz / lift
        turns = 0 if a.id[0] == b.id[0] else 1
        return t + turns * turn_s

    def _on_hand(self, code: str) -> int:
        return sum(rec[1] for rec in self.inv.values() if rec[0] == code)

    def _fifo_id(self, code: str):
        held = [lid for lid, rec in self.inv.items() if rec[0] == code]
        if not held:
            return None
        return min(held, key=lambda lid: (self.inv[lid][2], self.slots[lid].seq_no))

    def _take(self, code: str, qty: int):
        """Oldest-first consumption; returns (taken, drained) per pallet."""
        out = []
        remaining = qty
        while remaining > 0:
            lid = self._fifo_id(code)
            assert lid is not None, "oracle asked for more stock than exists"
            rec = self.inv[lid]
            taken = min(remaining, rec[1])
            rec[1] -= taken
            drained = rec[1] == 0
            if drained:
                del self.inv[lid]
            out.append((taken, drained))
            remaining -= taken
        return out

    def _candidates(self, code: str):
        if self.policy_kind == "fixed":
            return [self.slots[lid] for lid in self.slot_map[code]]
        if self.policy_kind == "fixed-zone":
            hz = self.items[code].home_zone
            return [loc for loc in self.slots.values() if loc.zone == hz]
        return list(self.slots.values())

    def _nearest_vacant(self, code: str):
        best_key, best = None, None
        for loc in self._candidates(code):
            if loc.id in self.inv:
                continue
            t = self._travel(self.locs[ELEVATOR], loc, self.pspeed, self.plift, self.pturn)
            key = (t, loc.seq_no)
            if best_key is None or key < best_key:
                best_key, best = key, loc
        return best

    def _primary(self, code: str):
        if self.policy_kind == "fixed":
            return self.slots[self.slot_map[code][0]]
        return min(self._candidates(code), key=lambda loc: loc.seq_no)

    # -- planning ----------------------------------------------------------

    def _plan(self, orders):
        groups: dict[str, list] = {}
        order_of_group: list[str] = []
        for no, truck, lines in orders:
            key = truck if truck else f"#solo:{no}"
            if key not in groups:
                groups[key] = []
                order_of_group.append(key)
            groups[key].append((no, truck, lines))
        sequence = []
        for key in order_of_group:
            sequence.extend(reversed(groups[key]))

        plans = []
        for no, _truck, lines in sequence:
            stops = []
            for idx, (code, _qty) in enumerate(lines):
                lid = self._fifo_id(code)
                loc = self.slots[lid] if lid is not None else self._primary(code)
                stops.append((idx, loc))
            if self.mode == "area":
                stops.sort(key=lambda s: (s[1].seq_no, s[0]))
                seg = [0] * len(stops)
            else:
                stops.sort(key=lambda s: (s[1].zone, s[1].seq_no, s[0]))
                seg = []
                for i, s in enumerate(stops):
                    if i > 0 and s[1].zone == stops[i - 1][1].zone:
                        seg.append(seg[-1])
                    else:
                        seg.append((seg[-1] + 1) if seg else 0)
            plans.append({
                "no": no,
                "stops": stops,
                "seg": seg,
                "rem": [qty for _code, qty in lines],
                "codes": [code for code, _qty in lines],
            })
        return plans

    # -- chronological loop ------------------------------------------------

    def _draw(self) -> float:
        r = self.cfg.replenish
        # the documented floor: t_min_s if set, else three sigma below the mean; >= 1 s
        floor = max(1, r.t_min_s if r.t_min_s is not None else r.mu_s - 3 * r.sigma_s)
        return max(self.rng.gauss(r.mu_s, r.sigma_s), floor)

    def run(self, max_events: int = 2_000_000):
        pending: list[tuple[float, int, str, tuple | None]] = []
        seq = 0

        def push(t: float, tag: str, data=None):
            nonlocal seq
            pending.append((t, seq, tag, data))
            seq += 1

        # same bootstrap: first pick order at zero, first restock one draw out
        if self.plans:
            push(0.0, "start", (0,))
        push(self._draw(), "restock", None)

        active = pos = None
        at_stop = None

        def legs_of(plan, p0, target, complete: bool):
            visit = list(range(p0, target))
            if not complete:
                visit.append(target)
            out = []
            if at_stop is None:
                cur_pt, cur_sg = self.locs[ENTRANCE], -1
            else:
                cur_pt, cur_sg = plan["stops"][at_stop][1], plan["seg"][at_stop]
            for q in visit:
                if q == at_stop:
                    continue
                sgm = plan["seg"][q]
                if cur_sg != -1 and sgm != cur_sg:
                    out.append(self._travel(cur_pt, self.locs[DROPOFF],
                                            self.wspeed, self.wlift, self.wturn))
                    cur_pt, cur_sg = self.locs[ENTRANCE], -1
                out.append(self._travel(cur_pt, plan["stops"][q][1],
                                        self.wspeed, self.wlift, self.wturn))
                cur_pt, cur_sg = plan["stops"][q][1], sgm
            if complete and visit:
                out.append(self._travel(cur_pt, self.locs[DROPOFF],
                                        self.wspeed, self.wlift, self.wturn))
            return out

        def advance(i: int, now: float):
            nonlocal active, pos, at_stop
            plan = self.plans[i]
            stops = plan["stops"]
            needs: dict[str, int] = {}
            m = None
            for q in range(pos, len(stops)):
                idx = stops[q][0]
                rem = plan["rem"][idx]
                if rem == 0:
                    continue
                code = plan["codes"][idx]
                needs[code] = needs.get(code, 0) + rem
                if needs[code] > self._on_hand(code):
                    m = q
                    break
            target = m if m is not None else len(stops)

            calls: list[list[tuple[int, int]]] = []
            cur_sg = -1
            for q in range(pos, target):
                idx = stops[q][0]
                rem = plan["rem"][idx]
                if rem == 0:
                    continue
                code = plan["codes"][idx]
                touches = self._take(code, rem)
                plan["rem"][idx] = 0
                if plan["seg"][q] != cur_sg:
                    calls.append([])
                    cur_sg = plan["seg"][q]
                pallets = len(touches)
                loose = sum(tk for tk, dr in touches if not dr)
                calls[-1].append((pallets, loose))

            legs = legs_of(plan, pos, target, m is None)
            t = now
            for leg in legs:
                t += leg
            for entries in calls:
                pallets = sum(e[0] for e in entries)
                masters = sum(-(-e[1] // self.cfg.pieces_per_master) for e in entries)
                t += self.cfg.BTpu + self.cfg.PPpu * pallets + self.cfg.PMpu * masters

            if m is None:
                self.completions[i] = t
                active = None
                if i + 1 < len(self.plans):
                    push(t, "start", (i + 1,))
                return
            pos = m
            at_stop = m
            idx = stops[m][0]
            push(t, "resume", (i, idx, stops[m][1].id))

        events = 0
        while pending:
            events += 1
            assert events <= max_events, "oracle run does not terminate"
            pending.sort(key=lambda e: (e[0], e[1]))
            now, _s, tag, data = pending.pop(0)

            if tag == "restock":
                if all(c is not None for c in self.completions):
                    continue
                gap = self._draw()
                best_key = None
                for code in sorted(self.items):
                    if self._nearest_vacant(code) is None:
                        continue
                    key = (self._on_hand(code), code)
                    if best_key is None or key < best_key:
                        best_key = key
                if best_key is not None:
                    code = best_key[1]
                    slot = self._nearest_vacant(code)
                    mfg = self.start + timedelta(days=int(now // 86400.0))
                    self.inv[slot.id] = [code, self.items[code].qty_per_pallet, mfg]
                push(now + gap, "restock", None)
                continue

            if tag == "start":
                (i,) = data
                if all(r == 0 for r in self.plans[i]["rem"]):
                    continue
                active, pos, at_stop = i, 0, None
                advance(i, now)
                continue

            # resume at a previously short line
            i, idx, lid = data
            assert active == i
            plan = self.plans[i]
            assert plan["stops"][pos][0] == idx and plan["stops"][pos][1].id == lid
            code = plan["codes"][idx]
            rem = plan["rem"][idx]
            avail = self._on_hand(code)
            if avail >= rem:
                advance(i, now)
                continue
            if avail > 0:
                self._take(code, avail)
                plan["rem"][idx] = rem - avail
            t_rp = min(t for t, _q, g, _d in pending if g == "restock")
            self.waiting_s += t_rp - now
            push(t_rp, "resume", (i, idx, lid))

        return self.completions, self.order_nos, self.waiting_s


def oracle_run(layout, items, initial, policy_kind, slot_map, orders, mode,
               cfg, seed, start):
    """One-call wrapper: returns (completions, order numbers, waiting seconds)."""
    sim = OracleSim(layout, items, initial, policy_kind, slot_map, orders,
                    mode, cfg, seed, start)
    return sim.run()
