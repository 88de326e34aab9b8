"""Regenerate the golden reports for the corpus command matrix.

Run from the repository root:  python scripts/make_goldens.py
"""

import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from cli_matrix import GOLDEN_RUNS  # noqa: E402

from starcheck.cli import main  # noqa: E402


def run():
    golden_dir = ROOT / "corpus" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_RUNS:
        buf = io.StringIO()
        code = main(argv, out=buf)
        path = golden_dir / f"{name}.txt"
        path.write_text(f"# exit {code}\n" + buf.getvalue(), encoding="utf-8")
        print(f"wrote {path.name} (exit {code})")


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    run()
