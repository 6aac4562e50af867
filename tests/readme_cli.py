"""Run the commands of README.md's CLI block, in order, in one directory.

    PYTHONPATH=src python tests/readme_cli.py OUTDIR

writes every file the commands name into OUTDIR, and the standard output of
each command into OUTDIR/stdout.txt, so that the outputs of two checkouts
can be compared with diff -r.  The r8/r16/r32.csv inputs of the extrapolate
example are made by solve first.  Exits 1 if a command does not exit 0.
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

from polyspec import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# the extrapolate example's inputs, written like README lines
INPUTS = [f"polyspec solve --polyhedron tetrahedron --resolution {r} "
          f"--num-eigs 20 --seed 1 --out r{r}.csv  # index,lambda,normalized"
          for r in (8, 16, 32)]


def commands():
    """(argv without 'polyspec', trailing comment) of each command, in order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    out = []
    for line in INPUTS + block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv:
            assert argv[0] == "polyspec", line
            out.append((argv[1:], comment.strip()))
    return out


def run_all(outdir):
    """Run commands() in outdir: (argv, comment, exit code, stdout) of each."""
    results = []
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for argv, comment in commands():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.run(argv)
            results.append((argv, comment, code, stdout.getvalue()))
    finally:
        os.chdir(cwd)
    return results


def main(outdir) -> int:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = run_all(outdir)
    log = [f"$ polyspec {shlex.join(argv)}\n{stdout}"
           for argv, _, _, stdout in results]
    (outdir / "stdout.txt").write_text("".join(log), encoding="utf-8")
    failed = [argv for argv, _, code, _ in results if code]
    for argv in failed:
        print(f"failed: polyspec {shlex.join(argv)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(main(sys.argv[1]))
