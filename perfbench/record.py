"""Record the reference digests of every scan output the benchmark can ask for.

    python3 perfbench/record.py

Runs ``quadheat scan`` for each scan kind and each time in SCAN_TIMES and
writes perfbench/reference.json, mapping "kind:s" to the digest of the CSV
without its log10_abs column (see workloads.scan_stripped_digest).  Run it
only when a change to scan output bytes is intended.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from quadheat.cli import main  # noqa: E402
from workloads import REFERENCE_FILE, SCAN_TIMES, scan_config, scan_stripped_digest  # noqa: E402


def record() -> dict:
    ref = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        cfg_path, out = Path(tmp) / "scan.json", Path(tmp) / "scan.csv"
        for kind in ("n1", "n2", "far"):
            for s in SCAN_TIMES:
                cfg_path.write_text(json.dumps(scan_config(kind, s)))
                if main(["scan", "--config", str(cfg_path), "--out", str(out)]) != 0:
                    raise SystemExit(f"scan {kind} s={s} failed")
                ref[f"{kind}:{s!r}"] = scan_stripped_digest(out.read_bytes())
    return ref


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
