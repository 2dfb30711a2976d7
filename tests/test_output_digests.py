import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digests_repeat_line_for_line(capsys):
    # the reduced workloads, twice: about 3 s on one 2.1 GHz Xeon VM core
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py"
    )
    output_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_digests)
    first = output_digests.main(small=True)
    second = output_digests.main(small=True)
    assert first == second
    assert capsys.readouterr().out.splitlines() == first + second
    names = list(output_digests.workloads.WORKLOADS)
    assert [line.split()[0] for line in first] == [n for n in names for _ in range(4)]
    assert all(re.fullmatch(r"\S+ [01] [01] [0-9a-f]{16}", line) for line in first)
