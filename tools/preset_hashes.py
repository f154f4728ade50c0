"""Print the sha256 of every artifact that the built-in presets write.

Each preset runs through `cahm.cli.main` into a temporary directory; one line
`<sha256>  <preset>/<file>` is printed per artifact, sorted, so that the output
of two checkouts can be compared with `diff`.  Uses the `cahm` on the import
path:

    PYTHONPATH=src python tools/preset_hashes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from cahm.cli import main, preset_config, presets


def preset_hashes() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in presets():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([preset_config(name).mode, "--preset", name, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"preset {name} exited {code}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{path.name}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in preset_hashes()))
