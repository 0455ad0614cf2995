"""Drive every tcode subcommand against the demo problem files.

Run from the repository root after installing the package:

    python3 demos/cli_tour.py
"""

import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
SURFACE = HERE / "surface.tcode"
FAMILY = HERE / "family.tcode"


def run(args: list[str], head: int | None = None) -> None:
    print()
    print("$ " + " ".join(args))
    proc = subprocess.run(args, capture_output=True, text=True)
    out = proc.stdout.rstrip("\n")
    if head is not None:
        lines = out.splitlines()
        out = "\n".join(lines[:head] + ([f"... ({len(lines) - head} more lines)"] if len(lines) > head else []))
    if out:
        print(out)
    if proc.stderr.strip():
        print("stderr:", proc.stderr.strip())
    print(f"exit code: {proc.returncode}")


run([sys.executable, "-m", "tcodes.cli", "validate", str(SURFACE)])
run([sys.executable, "-m", "tcodes.cli", "info", str(SURFACE)])
run([sys.executable, "-m", "tcodes.cli", "genmat", str(SURFACE)], head=3)
run([sys.executable, "-m", "tcodes.cli", "distance", str(SURFACE)])
run([sys.executable, "-m", "tcodes.cli", "compare", str(FAMILY)])
run([sys.executable, "-m", "tcodes.cli", "example", "surface", "info", "--curve", "elliptic:0,3", "--p", "7"])
run([sys.executable, "-m", "tcodes.cli", "example", "threefold", "info"])

print()
print("Failure modes map to distinct exit codes:")
with tempfile.TemporaryDirectory() as tmp:
    broken = pathlib.Path(tmp) / "broken.tcode"
    broken.write_text("field p=7\ncurve elliptic A=0 B=3\nbox [0,\n")
    run([sys.executable, "-m", "tcodes.cli", "validate", str(broken)])
run([sys.executable, "-m", "tcodes.cli", "distance", str(SURFACE), "--budget", "10"])
