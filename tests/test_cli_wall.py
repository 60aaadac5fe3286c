import importlib.util
import json
import re
import sys
from pathlib import Path

from cayleyheat.cli import COMMANDS

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_wall.py"
spec = importlib.util.spec_from_file_location("cli_wall", SCRIPT)
cli_wall = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_wall)


def test_reads_every_readme_command_and_the_tier1_line(tmp_path):
    lines = cli_wall.readme_commands()
    assert len(lines) == len(COMMANDS)
    assert all(cli_wall.process(s, tmp_path) == ([sys.executable, "-m", "cayleyheat",
                                                  *s.split()[1:]], tmp_path) for s in lines)
    argv, cwd = cli_wall.process(cli_wall.tier1_command(), tmp_path)
    assert argv[1:4] == ["-m", "pytest", "-q"] and cwd == cli_wall.ROOT


def test_one_round_writes_a_record(tmp_path, capsys):
    out = tmp_path / "record.json"
    assert cli_wall.main(["--rounds", "1", "--only", "h3-monotone", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r" *[\d.]+ ms best +[\d.]+ ms median  cayleyheat h3-monotone --d 2", lines[0])
    record = json.loads(out.read_text())
    assert [r["command"] for r in record["commands"]] == ["cayleyheat h3-monotone --d 2"]
    assert len(record["commands"][0]["runs_ms"]) == 1
    assert record["bytecode"]["modules"] >= 10
