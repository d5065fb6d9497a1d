"""Write the outputs of a fixed matrix of dpopt commands to one directory.

Usage:
    python tools/output_matrix.py [--src PATH] OUT

Runs `python -m dpopt` with PYTHONPATH=PATH (default: this checkout's
src/) on the shipped configs of this checkout.  Each command writes its
files under OUT/<name>/ and a log OUT/<name>.log holding its command
line, exit code, stdout and stderr, with the OUT path replaced by
`<out>`, so two trees made from different sources compare with
`diff -r`:

    python tools/output_matrix.py --src /path/to/parent/src /tmp/before
    python tools/output_matrix.py /tmp/after
    diff -r /tmp/before /tmp/after

Only the standard library is used.  The matrix runs serially, in about ten
seconds on two CPUs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("alg1", "alg1_rate", "alg2", "alg2_nonoise")

# (name, config, arguments after the config; --output is added when the
# command writes files).
MATRIX = (
    *((f"validate_{c}", c, ["validate"]) for c in CONFIGS),
    *((f"run_{c}", c, ["run", "--plot", "--runs", "10"])
      for c in ("alg1", "alg2", "alg2_nonoise")),
    ("run_alg1_rate", "alg1_rate", ["run"]),
    ("compare_alg1", "alg1",
     ["compare", "--variants", "alg1,dgd,pdop_alg1", "--plot", "--runs", "10"]),
    ("compare_alg2", "alg2",
     ["compare", "--variants", "alg2,push_pull", "--plot", "--runs", "10"]),
    ("budget_alg1", "alg1", ["budget", "--horizons", "1e3,1e4,1e5"]),
    ("budget_alg2", "alg2", ["budget", "--horizons", "7,1000,4097"]),
    # The benchmark's horizons: the accountant's walk crosses many block
    # edges on the way to 1e6.
    *((f"budget_{c}_1e6", c, ["budget", "--horizons", "1e4,1e5,1e6"])
      for c in ("alg1", "alg2")),
)


def run_matrix(src: str, out: str) -> None:
    """Run every command of MATRIX with src on the import path."""
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(out, exist_ok=True)
    for name, config, args in MATRIX:
        command, *options = args
        argv = [command, os.path.join(ROOT, "configs", f"{config}.cfg"),
                *options]
        if command != "validate":
            argv += ["--output", os.path.join(out, name)]
        proc = subprocess.run(
            [sys.executable, "-m", "dpopt", *argv], env=env, cwd=ROOT,
            capture_output=True, text=True,
        )
        text = (
            f"$ dpopt {' '.join(argv)}\nexit code: {proc.returncode}\n"
            f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        )
        with open(os.path.join(out, f"{name}.log"), "w",
                  encoding="utf-8") as fh:
            fh.write(text.replace(out, "<out>").replace(ROOT, "<root>"))
        print(f"{name}: exit {proc.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory put on PYTHONPATH (default: ./src)")
    parser.add_argument("out", help="output directory")
    args = parser.parse_args(argv)
    run_matrix(os.path.abspath(args.src), os.path.abspath(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
