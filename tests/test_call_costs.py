import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "call_costs.py"
spec = importlib.util.spec_from_file_location("call_costs", SCRIPT)
call_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(call_costs)


def test_one_line_per_library_function(capsys):
    assert call_costs.main(["--workload", "pair_sweep", "--seed", "3", "--rounds", "2"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "pair_sweep seed 3, 2 rounds of 128 instances"
    assert header.split() == ["function", "calls", "self", "us", "cum", "us"]
    found = {}
    for row in rows:
        m = re.fullmatch(r"(\w+)\.([\w<>]+):\d+ +(\d+) +([\d.]+) +([\d.]+)", row)
        assert m, row
        found[m[1], m[2]] = int(m[3]), float(m[4]), float(m[5])
    # an instance calls pushforward and each check once; a call's cumulative
    # time includes its self time
    for key in [("lattices", "pushforward")] + [
        ("checks", f) for f in ("sweep_rsd", "sweep_mean_ineq", "check_convolve_even")
    ]:
        calls, self_us, cum_us = found[key]
        assert calls == 2 * 128 and 0 < self_us <= cum_us
    # only the library's own functions are listed
    modules = {p.stem for p in (SCRIPT.parents[1] / "src" / "cayleyheat").glob("*.py")}
    assert {module for module, _ in found} <= modules
