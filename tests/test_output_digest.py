"""scripts/output_digest.py: one sha256 over a benchmark workload's outputs."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def test_digest_of_a_small_generated_seed_is_one_stable_sha256():
    cmd = [sys.executable, str(SCRIPT), "--workload", "wsd-corpus", "--seed", "1"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout
            for _ in range(2)]
    assert re.fullmatch(r"[0-9a-f]{64}\n", runs[0])
    assert runs[1] == runs[0]
