"""singlink command line: pairs, diagram, color, group, invariant, tables.

Diagram arguments accept a path or `@name` for a builtin; pair arguments
accept a path to a pair JSON file or `builtin:name`.  Exit codes: 0 ok,
1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import diagram as dg
from . import invariant as iv
from .coloring import count_colorings, enumerate_colorings
from .errors import SinglinkError
from .pairs import (SingularPair, builtin_pair, check_singular_pair,
                    classify_isomorphism, enumerate_left_right_invertible,
                    enumerate_taus, tau_phi_iso_count)
from .pairtable import (Biquandle, PairTable, Quandle, dihedral_switch,
                        flip_switch, i2_switch, make_bialexander,
                        make_quandle_switch)
from .presentation import (AbelianizedGroup, FiniteGroup, abelianize,
                           build_ab_presentation, build_unc_presentation,
                           generator_name)


@contextmanager
def _malformed(what: str):
    """Report a parse or validation failure of user input as a domain error."""
    try:
        yield
    except KeyError as exc:
        raise SinglinkError(f"malformed {what}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SinglinkError(f"malformed {what}: {exc}") from None


def _open(spec: str, what: str, forms: str):
    """A file argument, opened; a missing file or a directory is an unknown
    argument, reported with the forms it accepts."""
    try:
        return open(spec)
    except (FileNotFoundError, IsADirectoryError):
        raise SinglinkError(f"unknown {what} {spec!r}: expected {forms}") from None


def _read_file(spec: str, what: str, forms: str, read, *args):
    """read(the JSON object in file spec, *args): every file format is an
    object, and its object's reader validates it."""
    with _open(spec, what, forms) as fh, _malformed(f"{what} file {spec!r}"):
        data = json.load(fh)
        if type(data) is not dict:
            raise ValueError("the top level must be a JSON object")
        return read(data, *args)


_SWITCH_FORMS = ("flip[:n], i2, dN (e.g. d4), bialexander:m,s,t, "
                 "or a switch or quandle JSON file")
_PAIR_FORMS = "builtin:name or a pair JSON file"
_DIAGRAM_FORMS = "@name for a builtin, or a diagram text or JSON file"


def _load_switch(spec: str) -> Biquandle:
    def ints(text: str, form: str, count: int) -> list[int]:
        try:
            values = [int(v) for v in text.split(",")]
        except ValueError:
            values = []
        if len(values) != count:
            raise SinglinkError(f"malformed switch {spec!r}: expected {form}")
        return values

    with _malformed(f"switch {spec!r}"):
        if spec == "flip":
            return flip_switch(2)
        if spec.startswith("flip:"):
            return flip_switch(*ints(spec[5:], "flip[:n]", 1))
        if spec == "i2":
            return i2_switch()
        if spec.startswith("d") and spec[1:].isdigit():
            return dihedral_switch(int(spec[1:]))
        if spec.startswith("bialexander:"):
            return make_bialexander(*ints(spec[12:], "bialexander:m,s,t", 3))
        with _open(spec, "switch", _SWITCH_FORMS) as fh:
            data = json.load(fh)
        if "op" in data:
            return make_quandle_switch(Quandle.from_dict(data))
        return Biquandle.from_table(PairTable.from_dict(data))


def _read_pair(spec: str) -> SingularPair:
    """A pair argument as given; only `pairs check` reads it unchecked."""
    if spec.startswith("builtin:"):
        return builtin_pair(spec.split(":", 1)[1])
    return _read_file(spec, "pair", _PAIR_FORMS, SingularPair.from_dict)


def _load_pair(spec: str) -> SingularPair:
    """A pair argument that must satisfy the singular-pair axioms."""
    p = _read_pair(spec)
    with _malformed(f"pair {spec!r}"):
        return SingularPair.checked(p.biquandle, p.tau)


def _load_diagram(spec: str) -> dg.SingularDiagram:
    if spec.startswith("@"):
        return dg.builtin_diagram(spec[1:])
    if spec.endswith(".json"):
        return _read_file(spec, "diagram", _DIAGRAM_FORMS,
                          dg.SingularDiagram.from_dict)
    with _open(spec, "diagram", _DIAGRAM_FORMS) as fh, \
            _malformed(f"diagram file {spec!r}"):
        return dg.parse_diagram(fh.read())


def _check_at_least_1(flag: str, value):
    """Refuse an optional integer flag below 1."""
    if value is not None and value < 1:
        raise SinglinkError(f"{flag} must be at least 1, got {value}")


def _emit(as_json: bool, text_lines, json_obj):
    if as_json:
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands -------------------------------------------------------------

def _cmd_pairs(args) -> int:
    if args.pairs_cmd == "enumerate":
        _check_at_least_1("--max-n", args.max_n)
        _check_at_least_1("--n", args.n)
        # bare flip takes its size from --n; every other form has its own
        S = (flip_switch(args.n) if args.switch == "flip" and args.n is not None
             else _load_switch(args.switch))
        if args.n is not None and S.n != args.n:
            raise SinglinkError(
                f"--n {args.n} disagrees with switch on {S.n} elements")
        taus = enumerate_taus(S, max_n=args.max_n)
        lines = [f"pairs: {len(taus)}"]
        obj = {"count": len(taus),
               "taus": [t.to_dict() for t in taus]}
        if args.iso:
            classes = classify_isomorphism([SingularPair(S, t) for t in taus])
            lines.append(f"isoclasses: {len(classes)}")
            obj["isoclasses"] = len(classes)
            obj["canonical"] = [c.canonical.to_dict() for c in classes]
        _emit(args.json, lines, obj)
        return 0
    if args.pairs_cmd == "check":
        p = _read_pair(args.pair)
        res = check_singular_pair(p.biquandle, p.tau)
        lines = ["singular pair" if res.ok else "NOT a singular pair"]
        for v in res.violations:
            lines.append(f"  violated {v.axiom} at {v.witness}")
        _emit(args.json, lines, {"ok": res.ok,
                                 "violations": [[v.axiom, list(v.witness)]
                                                for v in res.violations]})
        return 0 if res.ok else 1
    raise SinglinkError(f"unknown pairs subcommand {args.pairs_cmd!r}")


def _cmd_diagram(args) -> int:
    d = _load_diagram(args.diagram)
    if args.diagram_cmd == "show":
        counts = d.counts()
        lines = [d.render().rstrip("\n"),
                 f"# components: {len(d.components)}  crossings: "
                 f"+{counts['+']} -{counts['-']} s{counts['s']}"]
        _emit(args.json, lines, d.to_dict())
        return 0
    if args.diagram_cmd == "move":
        sites = dg.find_move_sites(d, args.move)
        if args.site is None:
            lines = [f"{i}: crossings={s.crossings} {dict(s.params)}"
                     for i, s in enumerate(sites)]
            lines.insert(0, f"{len(sites)} sites for {args.move}")
            _emit(args.json, lines, {"move": args.move,
                                     "sites": [{"crossings": list(s.crossings),
                                                "params": dict(s.params)}
                                               for s in sites]})
            return 0
        if not (0 <= args.site < len(sites)):
            raise SinglinkError(
                f"site {args.site} out of range ({len(sites)} sites)")
        d2 = dg.apply_move(d, sites[args.site])
        _emit(args.json, [d2.render().rstrip("\n")], d2.to_dict())
        return 0
    raise SinglinkError(f"unknown diagram subcommand {args.diagram_cmd!r}")


def _cmd_color(args) -> int:
    d = _load_diagram(args.diagram)
    p = _load_pair(args.pair)
    if args.count_only:
        count = count_colorings(d, p)
        _emit(args.json, [str(count)], {"count": count})
        return 0
    cols = enumerate_colorings(d, p)
    edges = d.edges
    lines = [f"colorings: {len(cols)}"]
    for col in cols:
        lines.append("  " + " ".join(f"{e}={col[e]}" for e in edges))
    _emit(args.json, lines, {"count": len(cols),
                             "colorings": [{e: col[e] for e in edges} for col in cols]})
    return 0


def _render_group(g: AbelianizedGroup, coord_map: bool, n: int) -> list[str]:
    factors = ["Z"] * g.rank + [f"Z/{d}" for d in g.torsion]
    desc = " x ".join(factors) if factors else "1"
    lines = [f"rank {g.rank}, invariant factors {list(g.torsion)}  ({desc})"]
    if coord_map:
        for i in range(2 * n * n):
            lines.append(f"  {generator_name(n, i)} -> "
                         f"{g.render_element(g.generator(i))}")
    return lines


def _cmd_group(args) -> int:
    p = _load_pair(args.pair)
    if args.kind == "both":
        gn = abelianize(build_unc_presentation(p))
        ga = abelianize(build_ab_presentation(p))
        same = (gn.rank, gn.torsion) == (ga.rank, ga.torsion)
        lines = [f"{tag}: {_render_group(g, False, p.n)[0]}"
                 for tag, g in (("U_nc abelianized", gn), ("Ab", ga))]
        lines.append(f"same invariant factors: {same}")
        _emit(args.json, lines, {"nc": gn.to_dict(), "ab": ga.to_dict(),
                                 "same_invariant_factors": same})
        return 0
    pres = build_unc_presentation(p) if args.kind == "nc" else build_ab_presentation(p)
    g = abelianize(pres)
    _emit(args.json, _render_group(g, args.coord_map, p.n), g.to_dict())
    return 0


_COCYCLE_FORMS = "universal or a cocycle JSON file"


def _load_cocycle(spec: str, target_spec, p: SingularPair, kind: str):
    if spec == "universal":
        for name in ("flip-i2", "flip-flip"):
            if builtin_pair(name).key() == p.key():
                return iv.builtin_cocycle(name, kind)
        return (iv.universal_nc_cocycle(p) if kind == iv.NC
                else iv.universal_ab_cocycle(p))
    target = None if target_spec is None else _read_file(
        target_spec, "group", "a group JSON file", FiniteGroup.from_dict)
    return _read_file(spec, "cocycle", _COCYCLE_FORMS, iv.CocyclePair.from_dict,
                      kind, target)


def _cmd_invariant(args) -> int:
    d = _load_diagram(args.diagram)
    p = _load_pair(args.pair)
    kind = iv.NC if args.invariant_cmd == "nc" else iv.AB
    c = _load_cocycle(args.cocycle, args.target, p, kind)
    if kind == iv.NC:
        val = iv.nc_invariant(d, p, c)
        lines = []
        shown_items = []
        for tup, cnt in val.sorted_items():
            if isinstance(c.target, AbelianizedGroup):
                shown = tuple(c.target.render_element(e) for e in tup)
            else:
                shown = tuple(map(str, tup))
            lines.append(f"{cnt} x {{{', '.join(shown)}}}")
            shown_items.append({"count": cnt, "value": list(shown)})
        _emit(args.json, lines, {"multiset": shown_items})
        return 0
    val = iv.state_sum(d, p, c)
    if isinstance(c.target, AbelianizedGroup):
        text = iv.render_laurent(c.target, val)
    else:
        text = str(sorted(val.terms.items()))
    _emit(args.json, [text], {"state_sum": text})
    return 0


def _cmd_tables(args) -> int:
    if args.which == "flip-counts":
        rows = []
        for n in (2, 3, 4):
            classes = enumerate_taus(flip_switch(n), up_to_iso=True, max_n=4)
            rows.append((n, sum(c.size for c in classes), len(classes)))
        lines = ["n  pairs  isoclasses"]
        for n, a, b in rows:
            lines.append(f"{n}  {a:5d}  {b:10d}")
        _emit(args.json, lines, {"rows": rows})
        return 0
    if args.which == "lr-invertible":
        _check_at_least_1("--n", args.n)
        ns = [2, 3, 4] if args.n is None else [args.n]
        rows = []
        for n in ns:
            c = enumerate_left_right_invertible(n)
            rows.append((n, c.total, c.iso, c.bijective, c.bijective_iso))
        if args.n is not None:
            n, *vals = rows[0]
            _emit(args.json, [" ".join(str(v) for v in vals)],
                  {"n": n, "counts": vals})
        else:
            lines = ["n  total  isoclasses  bijective  bijective-isoclasses"]
            for n, *vals in rows:
                lines.append(f"{n}  {vals[0]}  {vals[1]}  {vals[2]}  {vals[3]}")
            _emit(args.json, lines, {"rows": rows})
        return 0
    top = 12 if args.slow else 9     # tau-phi, the last of the choices
    rows = [(n, tau_phi_iso_count(n)) for n in range(3, top + 1)]
    lines = ["n  I_n"] + [f"{n}  {c}" for n, c in rows]
    _emit(args.json, lines, {"rows": rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")

    ap = argparse.ArgumentParser(prog="singlink")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_pairs = sub.add_parser("pairs")
    pp = p_pairs.add_subparsers(dest="pairs_cmd", required=True)
    pe = pp.add_parser("enumerate", parents=[common])
    pe.add_argument("--switch", required=True, help=_SWITCH_FORMS)
    pe.add_argument("--n", type=int)
    pe.add_argument("--iso", action="store_true")
    pe.add_argument("--max-n", type=int, default=4,
                    help="bound for exhaustive enumerations")
    pc = pp.add_parser("check", parents=[common])
    pc.add_argument("pair")

    p_diag = sub.add_parser("diagram")
    dd = p_diag.add_subparsers(dest="diagram_cmd", required=True)
    ds = dd.add_parser("show", parents=[common])
    ds.add_argument("diagram")
    dm = dd.add_parser("move", parents=[common])
    dm.add_argument("diagram")
    dm.add_argument("--move", required=True, choices=dg.MOVES)
    dm.add_argument("--site", type=int)

    p_color = sub.add_parser("color", parents=[common])
    p_color.add_argument("diagram")
    p_color.add_argument("--pair", required=True)
    p_color.add_argument("--count-only", action="store_true")

    p_group = sub.add_parser("group", parents=[common])
    p_group.add_argument("--pair", required=True)
    p_group.add_argument("--kind", required=True, choices=("nc", "ab", "both"))
    p_group.add_argument("--coord-map", action="store_true")

    p_inv = sub.add_parser("invariant", parents=[common])
    p_inv.add_argument("invariant_cmd", choices=("nc", "statesum"))
    p_inv.add_argument("diagram")
    p_inv.add_argument("--pair", required=True)
    p_inv.add_argument("--cocycle", default="universal", help=_COCYCLE_FORMS)
    p_inv.add_argument("--target")

    p_tab = sub.add_parser("tables", parents=[common])
    p_tab.add_argument("--which", required=True,
                       choices=("flip-counts", "lr-invertible", "tau-phi"))
    p_tab.add_argument("--n", type=int)
    p_tab.add_argument("--slow", action="store_true",
                       help="enable the n >= 10 tau_phi rows")
    return ap


_DISPATCH = {"pairs": _cmd_pairs, "diagram": _cmd_diagram, "color": _cmd_color,
             "group": _cmd_group, "invariant": _cmd_invariant,
             "tables": _cmd_tables}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "tables":    # each flag is read by one table only
        for flag, given, table in (("--n", args.n is not None, "lr-invertible"),
                                   ("--slow", args.slow, "tau-phi")):
            if given and args.which != table:
                ap.error(f"{flag} is not read by --which {args.which}")
    if args.cmd == "invariant" and args.target is not None \
            and args.cocycle == "universal":
        ap.error("--target is not read by --cocycle universal")
    if args.cmd == "group" and args.coord_map and args.kind == "both":
        ap.error("--coord-map is not read by --kind both")
    try:
        return _DISPATCH[args.cmd](args)
    except (SinglinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
