"""The library's import path: numpy and ``scipy.sparse``, nothing heavier.

``scipy.integrate``, ``scipy.optimize`` and ``scipy.special`` together
cost more start-up than the rest of ``import repro``, in every process
and every pool worker.  The adaptive integrator, the hull and the
fixed-point settles run on the library's own Dormand–Prince, so neither
importing the package nor answering a hull or steady-state question
may load them.  A fresh interpreter is the only clean ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.special")

PROGRAM = textwrap.dedent(
    """
    import json
    import sys

    import repro
    from repro.scenarios import get_scenario, list_scenarios, run_question

    list_scenarios()
    answered = []
    for name, kind in (("autoscaler", "hull"),
                       ("repairable-queue", "steadystate")):
        spec = get_scenario(name)
        (question,) = [q for q in spec.questions if q.kind == kind]
        outcome = run_question(spec, question)
        answered.append(len(outcome.findings))
    print(json.dumps({"answered": answered,
                      "loaded": sorted(m for m in sys.modules
                                       if m.startswith("scipy."))}))
    """
)


def test_import_and_answers_load_no_heavy_scipy_module():
    # The child imports the same checkout as this process.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True,
                         text=True, timeout=300, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    report = json.loads(out.stdout.splitlines()[-1])
    assert all(n > 0 for n in report["answered"]), report
    loaded = report["loaded"]
    assert "scipy.sparse" in loaded
    heavy = [m for m in loaded if m.startswith(HEAVY)]
    assert heavy == [], heavy
