"""Check that this tree's benchmark outputs equal a base revision's, line for line.

    python3 scripts/compare_outputs.py --base REV

It checks REV out with `git worktree add` into a temporary directory,
runs `scripts/output_digests.py` in that tree and in this one, each as a
subprocess with its own `src` and `perfbench`, prints the lines that
differ and removes the worktree. A line is `workload seed key digest`,
and its key is everything before the digest.

A change may declare the outputs it changes on purpose, in lines of the
form `OUTPUTS: study2-sur surrogate-train` that it adds to CHANGES.md
against REV (read through `git diff REV -- CHANGES.md`). A declared name
is a workload or a committee id. The exit code is 1 if a line changes
that names nothing declared, if the two trees print different sets of
keys, or if a declared name has no changed line; it is 0 otherwise.
Both trees run on one machine, so BLAS and SIMD dispatch cannot differ
between them.
"""

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path("scripts") / "output_digests.py"
DECLARATION = re.compile(r"^[-*\s]*OUTPUTS:(.*)$")


def _keyed(lines):
    """{key: digest} of digest lines, the key being every field but the last."""
    return dict(line.rsplit(" ", 1) for line in lines)


def _names(key):
    """The names a line can be declared by: its workload, and its unit or committee id."""
    fields = key.split(" ")
    return {fields[0], fields[-1]}


def compare(base_lines, head_lines, declared):
    """(differing lines, problems) of two digest line lists.

    A differing line is printed as `- key digest` for the base and
    `+ key digest` for this tree. A problem is a message for each key
    present on one side only, each changed line that names nothing in
    `declared`, and each declared name with no changed line. The
    outputs are equal as declared when there is no problem.
    """
    base, head = _keyed(base_lines), _keyed(head_lines)
    diff, problems, changed = [], [], set()
    for key in sorted(base.keys() | head.keys()):
        if key not in head:
            problems.append(f"only the base prints {key!r}")
        elif key not in base:
            problems.append(f"only this tree prints {key!r}")
        elif base[key] != head[key]:
            diff += [f"- {key} {base[key]}", f"+ {key} {head[key]}"]
            names = _names(key)
            changed |= names
            if not names & declared:
                problems.append(f"{key!r} changed, and CHANGES.md declares no OUTPUTS for it")
    for name in sorted(declared - changed):
        problems.append(f"OUTPUTS declares {name!r}, but none of its lines changed")
    return diff, problems


def declared_names(diff_text):
    """Names on the `OUTPUTS:` lines that a unified diff adds."""
    names = set()
    for line in diff_text.splitlines():
        if line.startswith("+") and not line.startswith("+++"):
            match = DECLARATION.match(line[1:])
            if match:
                names.update(match.group(1).split())
    return names


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout


def _digests(tree):
    run = subprocess.run(
        [sys.executable, str(tree / DIGESTS)], cwd=tree, check=True, stdout=subprocess.PIPE,
        text=True,
    )
    return run.stdout.splitlines()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    args = parser.parse_args(argv)
    declared = declared_names(_git("diff", args.base, "--", "CHANGES.md"))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(tree), args.base)
        try:
            base_lines = _digests(tree)
        finally:
            _git("worktree", "remove", "--force", str(tree))
    head_lines = _digests(ROOT)
    diff, problems = compare(base_lines, head_lines, declared)
    print(f"{len(base_lines)} base lines, {len(head_lines)} lines here; "
          f"declared: {' '.join(sorted(declared)) or 'none'}")
    for line in diff:
        print(line)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
