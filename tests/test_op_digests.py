import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digests(workload: str, seed: int) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_digests.py"), str(ROOT),
         workload, str(seed)],
        capture_output=True, text=True, timeout=300, check=True)
    return [line.split() for line in proc.stdout.splitlines()]


def test_glyph_pass_digests_repeat():
    first = _digests("glyph-sup-contrastive", 1)
    assert [op[0] for op in first] == [
        "train", "eval:msp:concat-argmax", "eval:msp:compose",
        "eval:odin:concat-argmax", "eval:odin:compose",
        "eval:rotation-ensemble:concat-argmax",
        "eval:rotation-ensemble:compose", "calibrate"]
    assert all(len(op) == 3 and op[2] == "ok" and len(op[1]) == 64
               for op in first)
    assert _digests("glyph-sup-contrastive", 1) == first


def test_usage_errors_exit_2():
    script = str(ROOT / "scripts" / "op_digests.py")
    for args in ([], [str(ROOT), "no-such-workload", "1"],
                 [str(ROOT), "glyph-sup-contrastive", "one"]):
        proc = subprocess.run([sys.executable, script, *args],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
