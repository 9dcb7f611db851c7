import json

import pytest

from singlink.cli import main
from singlink.diagram import builtin_diagram
from singlink.invariant import AB, builtin_cocycle
from singlink.pairs import builtin_pair
from singlink.presentation import FiniteGroup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTables:
    def test_lr_invertible_n3_golden(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "lr-invertible", "--n", "3")
        assert code == 0
        assert out.strip() == "216 44 24 7"

    def test_flip_counts_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "flip-counts")
        assert code == 0
        for row in ("2      2           2", "3     24           7",
                    "4   3360         169"):
            assert row in out

    def test_tau_phi_default_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "tau-phi")
        assert code == 0
        lines = [l.split() for l in out.strip().splitlines()[1:]]
        assert [(int(a), int(b)) for a, b in lines] == \
            [(3, 2), (4, 4), (5, 6), (6, 16), (7, 20), (8, 56), (9, 136)]


class TestInvariantCommands:
    def test_statesum_golden(self, capsys):
        code, out, _ = run(capsys, "invariant", "statesum", "@four_sing_right",
                           "--pair", "builtin:flip-s2")
        assert code == 0
        assert out.strip() == "4*a*b^2*c"

    def test_statesum_left(self, capsys):
        code, out, _ = run(capsys, "invariant", "statesum", "@four_sing_left",
                           "--pair", "builtin:flip-s2")
        assert out.strip() == "2*a^2*c^2 + 2*b^4"

    def test_nc_invariant_output(self, capsys):
        code, out, _ = run(capsys, "invariant", "nc", "@sing_trefoil",
                           "--pair", "builtin:flip-i2")
        assert code == 0
        assert out.strip() == "2 x {b^2}"


class TestPairsCommands:
    def test_enumerate_flip3(self, capsys):
        code, out, _ = run(capsys, "pairs", "enumerate", "--switch", "flip",
                           "--n", "3", "--iso")
        assert code == 0
        assert "pairs: 24" in out and "isoclasses: 7" in out

    def test_quandle_file_is_its_switch(self, tmp_path, capsys):
        from singlink.pairtable import dihedral_quandle
        q = dihedral_quandle(3)
        f = tmp_path / "quandle.json"
        f.write_text(json.dumps({"n": q.n, "op": [list(r) for r in q.op]}))
        outputs = [run(capsys, "pairs", "enumerate", "--switch", spec, "--iso",
                       "--json") for spec in (str(f), "d3")]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and json.loads(outputs[0][1])["canonical"]

    def test_check_valid_pair(self, tmp_path, capsys):
        from singlink.pairs import builtin_pair
        p = builtin_pair("flip-i2")
        f = tmp_path / "pair.json"
        f.write_text(json.dumps({
            "biquandle": p.biquandle.table.to_dict(),
            "tau": p.tau.to_dict()}))
        code, out, _ = run(capsys, "pairs", "check", str(f))
        assert code == 0
        assert "singular pair" in out

    def test_enumerated_canonical_pairs_check(self, tmp_path, capsys):
        code, out, _ = run(capsys, "pairs", "enumerate", "--switch", "flip",
                           "--n", "3", "--iso", "--json")
        canonical = json.loads(out)["canonical"]
        assert code == 0 and len(canonical) == 7
        f = tmp_path / "pair.json"
        for pair in canonical:
            f.write_text(json.dumps(pair))
            assert run(capsys, "pairs", "check", str(f)) == (0, "singular pair\n", "")

    def test_check_invalid_pair(self, tmp_path, capsys):
        from singlink.pairtable import dihedral_switch, flip_switch
        f = tmp_path / "pair.json"
        f.write_text(json.dumps({
            "biquandle": dihedral_switch(3).table.to_dict(),
            "tau": flip_switch(3).table.to_dict()}))
        code, out, _ = run(capsys, "pairs", "check", str(f))
        assert code == 1
        assert "NOT a singular pair" in out
        assert "rv" in out

    @pytest.mark.parametrize("argv", [
        ("color", "@sing_trefoil", "--count-only"),
        ("group", "--kind", "nc"),
        ("invariant", "nc", "@sing_trefoil"),
    ], ids=["color", "group", "invariant"])
    def test_non_pair_is_refused_but_checkable(self, tmp_path, capsys, argv):
        from singlink.pairtable import dihedral_switch, flip_switch
        f = tmp_path / "pair.json"
        f.write_text(json.dumps({
            "biquandle": dihedral_switch(3).table.to_dict(),
            "tau": flip_switch(3).table.to_dict()}))
        code, out, err = run(capsys, *argv, "--pair", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a singular pair: violated rv at (0, 1)" in err
        code, out, _ = run(capsys, "pairs", "check", str(f))
        assert code == 1
        assert out.splitlines() == ["NOT a singular pair",
                                    "  violated rv at (0, 1)",
                                    "  violated riva at (0, 0, 1)"]


class TestDiagramCommands:
    def test_show_builtin(self, capsys):
        code, out, _ = run(capsys, "diagram", "show", "@sing_hopf")
        assert code == 0
        assert "components: 2" in out

    def test_show_file_roundtrip(self, tmp_path, capsys):
        d = builtin_diagram("four_sing_right")
        f = tmp_path / "d.txt"
        f.write_text(d.render())
        code, out, _ = run(capsys, "diagram", "show", str(f))
        assert code == 0

    def test_move_rv(self, capsys):
        code, out, _ = run(capsys, "diagram", "move", "@sing_trefoil",
                           "--move", "RV", "--site", "0")
        assert code == 0
        assert "X+" in out and "Xs" in out

    def test_move_listing(self, capsys):
        code, out, _ = run(capsys, "diagram", "move", "@sing_trefoil",
                           "--move", "RV")
        assert code == 0
        assert "sites for RV" in out


class TestColorCommand:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "color", "@sing_hopf", "--pair",
                           "builtin:flip-i2", "--count-only")
        assert code == 0
        assert out.strip() == "0"

    def test_count_only_does_not_list_colorings(self, capsys, monkeypatch):
        def refuse(d, p):
            raise AssertionError("--count-only listed the colorings")
        monkeypatch.setattr("singlink.cli.enumerate_colorings", refuse)
        code, out, _ = run(capsys, "color", "@sing_trefoil", "--pair",
                           "builtin:d3-ss", "--count-only")
        assert code == 0
        assert out.strip() == "9"

    def test_full_listing(self, capsys):
        code, out, _ = run(capsys, "color", "@unknot", "--pair",
                           "builtin:flip-i2")
        assert code == 0
        assert "colorings: 2" in out


class TestGroupCommand:
    def test_nc_group(self, capsys):
        code, out, _ = run(capsys, "group", "--pair", "builtin:flip-i2",
                           "--kind", "nc")
        assert code == 0
        assert "rank 3, invariant factors []" in out

    def test_ab_group_with_coords(self, capsys):
        code, out, _ = run(capsys, "group", "--pair", "builtin:flip-s2",
                           "--kind", "ab", "--coord-map")
        assert code == 0
        assert "invariant factors [2, 2]" in out
        assert "f(0,0) -> 1" in out

    def test_both_kinds(self, capsys):
        code, out, _ = run(capsys, "group", "--pair", "builtin:flip-s2",
                           "--kind", "both")
        assert code == 0
        assert "same invariant factors:" in out


class TestErrorsAndDeterminism:
    def test_unknown_builtin_is_domain_error(self, capsys):
        code, _, err = run(capsys, "diagram", "show", "@zzz")
        assert code == 1
        assert "error:" in err

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["tables"])            # missing --which
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "diagram", "show", "nope.txt")
        assert code == 1

    def test_byte_identical_runs(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "pairs", "enumerate", "--switch", "flip",
                            "--n", "3", "--iso", "--json")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "diagram", "show", "@four_sing_left", "--json")
        from singlink.diagram import SingularDiagram, isomorphic
        d = SingularDiagram.from_dict(json.loads(out))
        assert isomorphic(d, builtin_diagram("four_sing_left"))

    def test_enumeration_bound_enforced(self, capsys):
        code, _, err = run(capsys, "pairs", "enumerate", "--switch", "flip:6")
        assert code == 1 and "bound" in err
        code, out, _ = run(capsys, "pairs", "enumerate", "--switch", "flip:2",
                           "--max-n", "5")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("diagram", "show", "@unknot", "--max-n", "3"),
        ("color", "@unknot", "--pair", "builtin:flip-i2", "--slow"),
        ("pairs", "check", "builtin:flip-i2", "--slow"),
        ("tables", "--which", "flip-counts", "--n", "3"),
        ("tables", "--which", "tau-phi", "--n", "5"),
        ("tables", "--which", "flip-counts", "--slow"),
        ("tables", "--which", "lr-invertible", "--n", "3", "--slow"),
        ("group", "--pair", "builtin:flip-s2", "--kind", "both", "--coord-map"),
    ])
    def test_flags_exist_only_where_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_target_goes_only_with_a_cocycle_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "nc", "@sing_trefoil", "--pair", "builtin:flip-i2",
                  "--target", "/no/such/file.json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: --target is not read by --cocycle universal\n")

    def test_switch_help_lists_the_accepted_forms(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pairs", "enumerate", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for form in ("flip[:n]", "i2", "dN", "bialexander:m,s,t", "JSON file"):
            assert form in out

    @pytest.mark.parametrize("spec", ["D4", "nope.json", "flipped"])
    def test_unknown_switch_names_the_accepted_forms(self, tmp_path, monkeypatch,
                                                     capsys, spec):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "pairs", "enumerate", "--switch", spec)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: unknown switch {spec!r}")
        for form in ("flip[:n]", "i2", "dN", "bialexander:m,s,t", "JSON file"):
            assert form in err

    @pytest.mark.parametrize("spec", ["flip:3", "flip:2"])
    def test_flip_with_a_size_keeps_it(self, capsys, spec):
        # only bare flip takes its size from --n
        n = 5 - int(spec[-1])
        code, out, err = run(capsys, "pairs", "enumerate", "--switch", spec,
                             "--n", str(n))
        assert (code, out) == (1, "")
        assert err == f"error: --n {n} disagrees with switch on {spec[-1]} elements\n"
        assert run(capsys, "pairs", "enumerate", "--switch", spec, "--n",
                   spec[-1]) == run(capsys, "pairs", "enumerate", "--switch",
                                    "flip", "--n", spec[-1])

    def test_unknown_cocycle_names_the_accepted_forms(self, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "invariant", "nc", "@sing_trefoil", "--pair",
                             "builtin:flip-flip", "--cocycle", "nonsense")
        assert (code, out) == (1, "")
        assert err == ("error: unknown cocycle 'nonsense': expected universal "
                       "or a cocycle JSON file\n")

    @pytest.mark.parametrize("argv,what,forms", [
        (("color", "nonsense", "--pair", "builtin:flip-flip"), "diagram",
         "@name for a builtin, or a diagram text or JSON file"),
        (("diagram", "show", "folder"), "diagram", "@name for a builtin"),
        (("color", "@unknot", "--pair", "nonsense"), "pair",
         "builtin:name or a pair JSON file"),
        (("color", "@unknot", "--pair", "folder"), "pair", "builtin:name"),
        (("pairs", "check", "folder"), "pair", "builtin:name"),
        (("pairs", "enumerate", "--switch", "folder"), "switch",
         "flip[:n], i2, dN"),
        (("invariant", "nc", "@sing_trefoil", "--pair", "builtin:flip-flip",
          "--cocycle", "folder"), "cocycle", "universal or a cocycle JSON file"),
        (("invariant", "nc", "@sing_trefoil", "--pair", "builtin:flip-flip",
          "--cocycle", "nc.json", "--target", "folder"), "group",
         "a group JSON file"),
    ], ids=["diagram", "diagram-dir", "pair", "pair-dir", "checked-pair-dir",
            "switch-dir", "cocycle-dir", "target-dir"])
    def test_unknown_paths_name_the_accepted_forms(self, tmp_path, monkeypatch,
                                                   capsys, argv, what, forms):
        # a missing file or a directory, where a file or a name is expected
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "nc.json").write_text('{"kind": "nc"}')
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: unknown {what} ") and err.count("\n") == 1
        assert f": expected {forms}" in err
        assert "Errno" not in err

    @pytest.mark.parametrize("spec,form", [("flip:x", "flip[:n]"),
                                           ("bialexander:5,2", "bialexander:m,s,t")])
    def test_bad_switch_spec_names_its_form(self, capsys, spec, form):
        code, out, err = run(capsys, "pairs", "enumerate", "--switch", spec)
        assert (code, out) == (1, "")
        assert err == f"error: malformed switch {spec!r}: expected {form}\n"

    def test_n_does_not_lift_the_bound(self, capsys):
        code, _, err = run(capsys, "pairs", "enumerate", "--switch", "flip",
                           "--n", "5")
        assert code == 1 and "bound" in err

    @pytest.mark.parametrize("argv", [
        ("pairs", "enumerate", "--switch", "flip:x"),
        ("pairs", "enumerate", "--switch", "flip:0"),
        ("pairs", "check", "{no_biquandle}"),
        ("pairs", "check", "{not_biquandle}"),
        ("invariant", "statesum", "@unknot", "--pair", "builtin:flip-i2",
         "--cocycle", "{bad_json}"),
        ("invariant", "statesum", "@unknot", "--pair", "builtin:flip-i2",
         "--cocycle", "{ragged}", "--target", "{z2}"),
        ("invariant", "statesum", "@unknot", "--pair", "builtin:flip-i2",
         "--cocycle", "{top_list}", "--target", "{z2}"),
        ("invariant", "statesum", "@unknot", "--pair", "builtin:flip-i2",
         "--cocycle", "{out_of_range}", "--target", "{z2}"),
        ("invariant", "nc", "@unknot", "--pair", "builtin:flip-i2",
         "--cocycle", "{short_coordinates}"),
        ("diagram", "show", "{top_list}"),
        ("diagram", "show", "{three_slots}"),
        ("diagram", "show", "{no_kind}"),
        ("diagram", "show", "{int_slots}"),
        ("diagram", "show", "{bad_json}"),
        ("tables", "--which", "lr-invertible", "--n", "-1"),
        ("tables", "--which", "lr-invertible", "--n", "0"),
        ("pairs", "enumerate", "--switch", "flip", "--n", "0"),
        ("pairs", "enumerate", "--switch", "flip", "--max-n", "0"),
        ("pairs", "enumerate", "--switch", "d0"),
        ("pairs", "enumerate", "--switch", "bialexander:0,1,1"),
        # values that int() and tuple() would coerce
        ("diagram", "show", "{string_slots}"),
        ("diagram", "show", "{string_loops}"),
        ("pairs", "enumerate", "--switch", "{string_row}"),
        ("pairs", "enumerate", "--switch", "{float_entry}"),
        # quandle files, each checked as its switch
        ("pairs", "enumerate", "--switch", "{ragged_op}"),
        ("pairs", "enumerate", "--switch", "{not_distributive_op}"),
        ("pairs", "enumerate", "--switch", "{not_idempotent_op}"),
        ("invariant", "statesum", "@unknot", "--pair", "builtin:flip-i2",
         "--cocycle", "{string_cocycle_row}", "--target", "{z2}"),
        ("invariant", "statesum", "@unknot", "--pair", "builtin:flip-i2",
         "--cocycle", "{z2_cocycle}", "--target", "{float_group}"),
        *(("invariant", "statesum", "@four_sing_right", "--pair",
           "builtin:flip-s2", "--cocycle", "{%s}" % name)
          for name in ("float_torsion", "string_rank", "string_labels",
                       "bool_coordinate", "string_coordinate", "zero_torsion",
                       "short_labels", "short_coord_map")),
    ], ids=["flip-x", "flip-0", "no-biquandle", "not-biquandle", "bad-json",
            "ragged-cocycle", "cocycle-list", "cocycle-out-of-range",
            "cocycle-short-coordinates",
            "diagram-list", "diagram-three-slots", "diagram-no-kind",
            "diagram-int-slots", "diagram-not-json", "lr-n-negative", "lr-n-zero", "flip-n-zero",
            "max-n-zero", "d-zero", "bialexander-zero", "string-slots",
            "string-loops", "string-row", "float-entry", "ragged-op",
            "not-distributive-op", "not-idempotent-op", "cocycle-string-row",
            "group-float-entry", "float-torsion", "string-rank",
            "string-labels", "bool-coordinate", "string-coordinate",
            "zero-torsion", "short-labels", "short-coord-map"])
    def test_malformed_input_is_one_line_error(self, tmp_path, capsys, argv):
        flip = builtin_pair("flip-i2").biquandle.table.to_dict()
        c = builtin_cocycle("flip-s2", AB)

        def embedded(field, coordinate=None, **target):
            # the flip-s2 ab cocycle with its target embedded, one field
            # replaced: a target key, or coordinate 1 of f(0, 0) or h(0, 0)
            obj = {"kind": "ab", "target": {**c.target.to_dict(), **target},
                   "f": [[[list(v[0]), list(v[1])] for v in row] for row in c.f],
                   "h": [[[list(v[0]), list(v[1])] for v in row] for row in c.h]}
            if coordinate is not None:
                obj[field][0][0][0][0] = coordinate
            return obj

        zero = {"n": 2, "t1": [[0, 0], [0, 0]], "t2": [[0, 0], [0, 0]]}
        files = {"no_biquandle": {"tau": flip},
                 "not_biquandle": {"biquandle": zero, "tau": flip},
                 "bad_json": None,
                 "z2": {"order": 2, "mul": [[0, 1], [1, 0]]},
                 "ragged": {"kind": "ab", "f": [[0, 0], [0]],
                            "h": [[0, 1], [1, 0]]},
                 "top_list": [[0, 0], [0, 0]],
                 "out_of_range": {"kind": "ab", "f": [[0, 0], [0, 0]],
                                  "h": [[0, 2], [1, 0]]},
                 # values in Z^1 with no free coordinate
                 "short_coordinates": {
                     "kind": "nc",
                     "target": {"rank": 1, "torsion": [],
                                "coord_map": [[[1], []]] * 8},
                     "f": [[[[], []]] * 2] * 2, "h": [[[[], []]] * 2] * 2},
                 "three_slots": {"crossings": [{"kind": "+",
                                                "slots": ["a", "b", "a"]}]},
                 "no_kind": {"crossings": [{"slots": ["a", "b", "b", "a"]}]},
                 "int_slots": {"crossings": [{"kind": "+", "slots": [1, 2, 2, 1]}]},
                 # each read as a valid input before the types were checked
                 "string_slots": {"crossings": [{"kind": "+", "slots": "abba"}]},
                 "string_loops": {"loops": "xy"},
                 "string_row": {**flip, "t1": ["01", [0, 1]]},
                 "float_entry": {**flip, "t1": [[0, 1.9], [0, 1]]},
                 "ragged_op": {"n": 3, "op": [[0, 0, 0], [1, 1], [2, 2, 2]]},
                 # - <| 0 and - <| 1 swap the other two elements
                 "not_distributive_op": {"n": 3, "op": [[0, 2, 0], [2, 1, 1],
                                                        [1, 0, 2]]},
                 # the cyclic rack x <| y = x + 1
                 "not_idempotent_op": {"n": 3, "op": [[1] * 3, [2] * 3, [0] * 3]},
                 "string_cocycle_row": {"kind": "ab", "f": ["00", [0, 0]],
                                        "h": [[0, 1], [1, 0]]},
                 "z2_cocycle": {"kind": "ab", "f": [[0, 0], [0, 0]],
                                "h": [[0, 1], [1, 0]]},
                 "float_group": {"order": 2, "mul": [[0, 1], [1, 0.0]]},
                 # defects in an embedded target and its coordinates
                 "float_torsion": embedded("target", torsion=[2.0, 2]),
                 "string_rank": embedded("target", rank="3"),
                 "string_labels": embedded("target", free_labels="abc"),
                 "bool_coordinate": embedded("h", coordinate=True),
                 "string_coordinate": embedded("f", coordinate="0"),
                 # a traceback, a value without its b and c, and a group
                 # whose generators have too few coordinates
                 "zero_torsion": embedded("target", torsion=[0, 2]),
                 "short_labels": embedded("target", free_labels=["a"]),
                 "short_coord_map": embedded("target", coord_map=[[[1], []]])}
        paths = {}
        for name, obj in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text('{"kind": ' if obj is None else json.dumps(obj))
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("crossing,message", [
        ({"kind": "+", "slots": ["c", "d", "a"]},
         "crossing 1: a crossing needs 4 edge names, got ['c', 'd', 'a']"),
        ({"kind": "q", "slots": ["c", "d", "d", "c"]},
         "crossing 1: bad crossing kind 'q'"),
    ], ids=["three-slots", "bad-kind"])
    def test_bad_crossing_error_names_its_index(self, tmp_path, capsys,
                                                 crossing, message):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps({"crossings": [
            {"kind": "+", "slots": ["a", "b", "b", "a"]}, crossing]}))
        assert run(capsys, "diagram", "show", str(path)) == \
            (1, "", f"error: {message}\n")


class TestCocycleFiles:
    def test_file_cocycle_with_finite_target(self, tmp_path, capsys):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"order": 2, "mul": [[0, 1], [1, 0]]}))
        coc = tmp_path / "cocycle.json"
        coc.write_text(json.dumps({"kind": "ab",
                                   "f": [[0, 0], [0, 0]],
                                   "h": [[0, 1], [1, 0]]}))
        code, out, _ = run(capsys, "invariant", "statesum", "@unknot",
                           "--pair", "builtin:flip-i2",
                           "--cocycle", str(coc), "--target", str(group))
        assert code == 0
        assert "(0, 2)" in out       # 2 colorings, both weight the identity

    def test_abelian_cocycle_file_refuses_a_nonabelian_target(self, tmp_path,
                                                             capsys):
        s3 = FiniteGroup.symmetric(3)
        group = tmp_path / "s3.json"
        group.write_text(json.dumps({"order": s3.order,
                                     "mul": [list(row) for row in s3.table]}))
        coc = tmp_path / "cocycle.json"
        coc.write_text(json.dumps({"kind": "ab", "f": [[0, 0], [0, 0]],
                                   "h": [[0, 1], [1, 0]]}))
        assert run(capsys, "invariant", "statesum", "@sing_trefoil",
                   "--pair", "builtin:flip-i2", "--cocycle", str(coc),
                   "--target", str(group)) == \
            (1, "", "error: abelian cocycle pair needs an abelian target\n")

    @pytest.mark.parametrize("cocycle,message", [
        ({"kind": "nc", "f": [[0, 0], [0, 0]], "h": [[0, 1], [1, 0]]},
         "cocycle file is of kind 'nc'"),
        ({"kind": "ab", "f": [[0, 0], [0, 0]], "h": [[0, 1], [1, 0]]},
         "cocycle file needs --target or an embedded target"),
    ], ids=["other-kind", "no-target"])
    def test_cocycle_file_refused_as_read(self, tmp_path, capsys, cocycle,
                                          message):
        coc = tmp_path / "cocycle.json"
        coc.write_text(json.dumps(cocycle))
        assert run(capsys, "invariant", "statesum", "@sing_trefoil",
                   "--pair", "builtin:flip-i2", "--cocycle", str(coc)) == \
            (1, "", f"error: {message}\n")

    def test_universal_cocycle_of_a_pair_file(self, tmp_path, capsys):
        p = builtin_pair("d3-ss")
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps(p.to_dict()))
        outputs = [run(capsys, "invariant", "nc", "@sing_trefoil", "--pair",
                       spec, "--cocycle", "universal")
                   for spec in (str(pair), "builtin:d3-ss")]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1]

    def test_file_cocycle_embedded_target(self, tmp_path, capsys):
        from singlink.invariant import AB, builtin_cocycle
        c = builtin_cocycle("flip-s2", AB)
        coc = tmp_path / "cocycle.json"
        coc.write_text(json.dumps({
            "kind": "ab",
            "target": c.target.to_dict(),
            "f": [[[list(v[0]), list(v[1])] for v in row] for row in c.f],
            "h": [[[list(v[0]), list(v[1])] for v in row] for row in c.h]}))
        code, out, _ = run(capsys, "invariant", "statesum", "@four_sing_right",
                           "--pair", "builtin:flip-s2", "--cocycle", str(coc))
        assert code == 0
        assert out.strip() == "4*a*b^2*c"
