import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digests_repeat_line_for_line(capsys):
    # the reduced workloads, twice: about 9 s on one 2.1 GHz Xeon VM core,
    # two thirds of it writing committee files
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py"
    )
    output_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_digests)
    first = output_digests.main(small=True)
    second = output_digests.main(small=True)
    assert first == second
    assert capsys.readouterr().out.splitlines() == first + second
    # per seed, study2-sur's nine set-up committee files precede its units,
    # and each study2-ref unit is followed by the two run files it wrote
    committees = list(output_digests.surrogate.ALL_TARGET_IDS)
    names = list(output_digests.workloads.WORKLOADS)
    run_files = {"study2-ref": ["best_design.json", "history.csv"]}

    def unit_fields(name, rep):
        return [str(rep)] + [f"{rep}/{file}" for file in run_files.get(name, [])]

    expected = [
        (name, str(seed), field)
        for name in names
        for seed in (0, 1)
        for field in (committees if name == "study2-sur" else [])
        + unit_fields(name, 0)
        + unit_fields(name, 1)
    ]
    assert [tuple(line.split()[:3]) for line in first] == expected
    assert all(
        re.fullmatch(r"\S+ [01] ([a-z_01]+|[01]/[a-z_]+\.(json|csv)) [0-9a-f]{16}", line)
        for line in first
    )
