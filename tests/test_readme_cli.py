"""Every `singlink` command in README.md prints exactly what it printed
when its digest was recorded.

Commands are read from the README's CLI block; an optional `[--flag]` is
run both without and with the flag.  A command that names a file runs in
a directory where README_FILES has written it.  The `--slow` row
(I_10..I_12) is counted in milliseconds and runs in the default suite.
"""

import hashlib
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from singlink.cli import main
from singlink.pairs import builtin_pair

README = Path(__file__).resolve().parent.parent / "README.md"

# SHA-256 of stdout; the exit code of every command is 0
STDOUT_DIGESTS = {
    "tables --which flip-counts":
        "01badd2c2636309dfba0194044525be44f43e6a3e9f197f08b524db077d77662",
    "tables --which lr-invertible --n 3":
        "519179c4063e68c1df03f52986f8e02017f1234941eb1524a7e7e6fcbf474f83",
    "tables --which tau-phi":
        "68570b16a35397ca5f1533ec0b8d11da1dd8deb41e158712a2c26dc29cfc29cc",
    "tables --which tau-phi --slow":
        "3a00ead177027c56c6b01cd95633a0532f45e40eb96be3ad879192b120d4fd49",
    "pairs enumerate --switch flip --n 3 --iso":
        "3339a3c0def4692b4b7f8bf1d225ad31c85b130cedaa5e8e4fa0d72be41b4d7e",
    "pairs enumerate --switch flip --n 3 --iso --json":
        "09893f843b5e49b1f46def684397c21bb28853b97dd5afe5e746197e4136825a",
    "diagram show @sing_hopf":
        "ee35d5f25105278f95cacf04154dfa67ae82b3dd230cf32c982c93e2925eb609",
    "diagram move @sing_trefoil --move RV --site 0":
        "240b84e76d19c8389c8f50cfe6ddeebbfbe3dfecf8b89f1d0e6b238e9da834f7",
    "color @sing_hopf --pair builtin:flip-i2 --count-only":
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "group --pair builtin:flip-s2 --kind ab --coord-map":
        "b2f56979b81dffc64e8cf6b37faba48f9a337a95eaf43883121cd9f5eb8ba9e5",
    "group --pair builtin:flip-s2 --kind both":
        "68356665b6f3e60b7896b5821257af9525d3e1ea41837385ab83aa7d078a3344",
    "invariant nc @sing_trefoil --pair builtin:flip-i2":
        "abb7f920bcff662f463b48cbac44fe68b46b9e8cafd109735ed007c4a12a7127",
    "invariant statesum @four_sing_right --pair builtin:flip-s2":
        "6a41673b488354e7994924481d2986681dbc1587888f465401dda1f461d06690",
    # "singular pair\n"
    "pairs check pair.json":
        "056054a9d6d06b7278348c01437c7280656a5a76ef3f28248773b9e6f89fba60",
}

# the files README commands name, as the objects that write them
README_FILES = {"pair.json": lambda: builtin_pair("flip-i2").to_dict()}


def readme_commands() -> list[str]:
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line.startswith("singlink "):
            continue
        parts = re.split(r"\s*\[([^\]]*)\]", line[len("singlink "):])
        fixed, optional = parts[0::2], parts[1::2]
        for keep in itertools.product((False, True), repeat=len(optional)):
            words = fixed[0]
            for flag, kept, tail in zip(optional, keep, fixed[1:]):
                words += (" " + flag if kept else "") + tail
            out.append(words.strip())
    return out


def test_every_builtin_readme_command_has_a_digest():
    assert sorted(readme_commands()) == sorted(STDOUT_DIGESTS)


def test_every_file_a_readme_command_names_is_written():
    named = {w for c in readme_commands() for w in c.split() if w.endswith(".json")}
    assert named == set(README_FILES)


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_output_is_unchanged(command, capsys, tmp_path,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, write in README_FILES.items():
        (tmp_path / name).write_text(json.dumps(write()))
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[command]
