#!/usr/bin/env python3
"""Reproduce the three enumeration tables and the worked invariant values
end to end.  Runs everything the library computes from scratch; pass
--slow to include the I_10..I_12 rows.
"""

import argparse
import time

from singlink.diagram import builtin_diagram
from singlink.invariant import (AB, NC, builtin_cocycle, nc_invariant,
                                render_laurent, state_sum)
from singlink.pairs import (builtin_pair, enumerate_left_right_invertible,
                            enumerate_taus, tau_phi_iso_count)
from singlink.pairtable import flip_switch


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--slow", action="store_true",
                    help="include the I_10..I_12 rows")
    args = ap.parse_args()
    t0 = time.time()

    banner("left/right-invertible flip-compatible maps")
    print("n   total  isoclasses  bijective  bijective-isoclasses")
    for n in (2, 3, 4):
        c = enumerate_left_right_invertible(n)
        print(f"{n}  {c.total:6d}  {c.iso:10d}  {c.bijective:9d}  {c.bijective_iso:8d}")

    banner("singular pairs for S = flip")
    print("n  pairs  isoclasses")
    for n in (2, 3, 4):
        classes = enumerate_taus(flip_switch(n), up_to_iso=True, max_n=4)
        pairs = sum(c.size for c in classes)
        print(f"{n}  {pairs:5d}  {len(classes):10d}")

    banner("isoclasses of tau_phi singular pairs for D_n")
    top = 12 if args.slow else 9
    print("n   " + "  ".join(f"{n}" for n in range(3, top + 1)))
    print("I_n " + "  ".join(f"{tau_phi_iso_count(n)}" for n in range(3, top + 1)))

    banner("worked invariants for (Z/2, flip, i2)")
    # one object per diagram: a diagram keeps its colorings per pair, so
    # the nc invariant and the state sum under flip-i2 share one search
    d = {name: builtin_diagram(name)
         for name in ("sing_trefoil", "four_sing_right", "four_sing_left")}
    p = builtin_pair("flip-i2")
    cnc = builtin_cocycle("flip-i2", NC)
    g = cnc.target
    for name in d:
        v = nc_invariant(d[name], p, cnc)
        shown = ["{" + ", ".join(g.render_element(e) for e in tup) + "}"
                 + (f" x{cnt}" if cnt > 1 else "")
                 for tup, cnt in v.sorted_items()]
        print(f"{name:18s} {'; '.join(shown)}")

    banner("state sums for the four-singular-crossing links")
    cab = builtin_cocycle("flip-s2", AB)
    for name in ("four_sing_right", "four_sing_left"):
        v = state_sum(d[name], p, cab)
        print(f"{name:18s} {render_laurent(cab.target, v)}")
    pff = builtin_pair("flip-flip")
    cff = builtin_cocycle("flip-flip", AB)
    same = state_sum(d["four_sing_left"], pff, cff) == \
        state_sum(d["four_sing_right"], pff, cff)
    print(f"(flip, flip) distinguishes the two links: {not same}")

    print(f"\ntotal time: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
