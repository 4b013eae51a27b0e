import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = Path("/tmp/clwb-digests/glyph-sup-contrastive-1")


def _start_pass() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "op_digests.py"), str(ROOT),
         "glyph-sup-contrastive", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_glyph_pass_digests_repeat():
    # Two passes share one work directory. The second starts once the first
    # has written its first checkpoint, so a second pass that cleared the
    # directory then would make the first one fail.
    started = time.time()
    procs = [_start_pass()]
    checkpoint = WORKDIR / "run" / "task1.clwb"
    while procs[0].poll() is None and time.time() < started + 300 and not (
            checkpoint.exists() and checkpoint.stat().st_mtime >= started):
        time.sleep(0.01)
    procs.append(_start_pass())
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    first, second = ([line.split() for line in out.splitlines()]
                     for out, _ in outs)
    assert [op[0] for op in first] == [
        "train", "eval:msp:concat-argmax", "eval:msp:compose",
        "eval:odin:concat-argmax", "eval:odin:compose",
        "eval:rotation-ensemble:concat-argmax",
        "eval:rotation-ensemble:compose", "calibrate"]
    assert all(len(op) == 3 and op[2] == "ok" and len(op[1]) == 64
               for op in first)
    assert second == first


def test_usage_errors_exit_2():
    script = str(ROOT / "scripts" / "op_digests.py")
    for args in ([], [str(ROOT), "no-such-workload", "1"],
                 [str(ROOT), "glyph-sup-contrastive", "one"]):
        proc = subprocess.run([sys.executable, script, *args],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
