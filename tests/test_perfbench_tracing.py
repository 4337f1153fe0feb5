import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_wrapped_callable():
    # tracing.instrument wraps scootpriv callables by name, so renaming or
    # deleting one of them breaks the benchmark's --trace 1 runs
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import tracing; "
        "tracing.instrument(tracing.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
