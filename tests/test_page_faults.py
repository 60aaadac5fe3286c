import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "page_faults.py"
spec = importlib.util.spec_from_file_location("page_faults", SCRIPT)
page_faults = importlib.util.module_from_spec(spec)
spec.loader.exec_module(page_faults)


def test_one_line_per_round(capsys):
    assert page_faults.main(["--workload", "pair_sweep", "--seed", "3", "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [re.fullmatch(r"round (\d): \d+ minor faults, [\d.]+ ms", s)[1] for s in lines] == ["0", "1"]
