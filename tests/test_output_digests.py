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


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [
    "study2-ref 0 0 0123456789abcdef",
    "study2-ref 0 0/best_design.json 1111111111111111",
    "study2-sur 0 pair_damping_diag 2222222222222222",
    "study2-sur 0 0 3333333333333333",
]


def test_compare_outputs_passes_only_what_is_declared():
    compare = _compare_outputs().compare
    assert compare(BASE, list(BASE), set()) == ([], [])
    # an undeclared change, with both sides of it printed
    changed = BASE[:3] + ["study2-sur 0 0 4444444444444444"]
    diff, problems = compare(BASE, changed, set())
    assert diff == ["- study2-sur 0 0 3333333333333333", "+ study2-sur 0 0 4444444444444444"]
    assert len(problems) == 1 and "'study2-sur 0 0' changed" in problems[0]
    # the same change declared by its workload passes; a committee id
    # covers only its own line
    assert compare(BASE, changed, {"study2-sur"}) == (diff, [])
    assert compare(BASE, changed, {"pair_damping_diag"})[1] == [
        "'study2-sur 0 0' changed, and CHANGES.md declares no OUTPUTS for it",
        "OUTPUTS declares 'pair_damping_diag', but none of its lines changed",
    ]
    # a declared name that did not change
    assert compare(BASE, list(BASE), {"layout-scan"}) == (
        [], ["OUTPUTS declares 'layout-scan', but none of its lines changed"]
    )
    # a line on one side only
    assert compare(BASE, BASE[:3], {"study2-sur"})[1] == [
        "only the base prints 'study2-sur 0 0'",
        "OUTPUTS declares 'study2-sur', but none of its lines changed",
    ]


def test_compare_outputs_reads_the_outputs_lines_a_diff_adds():
    diff = "\n".join([
        "+++ b/CHANGES.md",
        "-OUTPUTS: layout-scan",
        " OUTPUTS: study2-ref",
        "+- A float32 forward pass; the surrogate's outputs change.",
        "+OUTPUTS: study2-sur surrogate-train",
        "+- OUTPUTS: pair_damping_diag",
        "+- mentions `OUTPUTS:` lines in the middle of a sentence",
    ])
    assert _compare_outputs().declared_names(diff) == {
        "study2-sur", "surrogate-train", "pair_damping_diag",
    }
