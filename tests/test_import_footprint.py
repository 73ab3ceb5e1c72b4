"""Tests: the streaming and serving import path loads no module it never runs.

scipy (calibration and ``ssim`` only) and the HTTP stack behind
:class:`~repro.obs.live.MetricsServer` load on first use, so a process
that only streams or serves does not keep them resident, and a fleet
does not fork them.  A fresh interpreter is the only clean
``sys.modules``, so the check runs in a subprocess.
"""

import json
import subprocess
import sys
import textwrap

import pytest

pytestmark = pytest.mark.tier1

_SCRIPT = textwrap.dedent("""
    import json
    import sys

    import repro
    import repro.obs
    import repro.parallel.ring
    import repro.serve
    import repro.video.stream

    loaded = sorted(m for m in ("scipy", "http.server") if m in sys.modules)
    from repro.obs import MetricsServer, health_summary
    from repro.bench import run_experiment

    print(json.dumps({
        "loaded": loaded,
        "resolved": [MetricsServer.__name__, health_summary.__name__,
                     run_experiment.__name__],
        "live_loaded": "http.server" in sys.modules,
    }))
""")


def test_stream_and_serve_imports_skip_scipy_and_http():
    proc = subprocess.run([sys.executable, "-c", _SCRIPT],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == [], result
    assert result["resolved"] == ["MetricsServer", "health_summary",
                                  "run_experiment"]
    assert result["live_loaded"], "MetricsServer resolved without its module"


def test_unknown_obs_attribute_raises():
    import repro.obs

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.obs.no_such_name
