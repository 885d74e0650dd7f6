"""What a fresh process loads: never scipy, and never concurrent.futures or the
logging it imports (8-10 ms of set-up), not even to train a generator network,
whose Adam step runs on threading alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

import qsnapshot
from qsnapshot import cli
from qsnapshot.core import Rng, random_pure_state
from qsnapshot.estimators import (EsConfig, FidelityOracle, GradientConfig,
                                  train_gradient, train_qeswap)
from qsnapshot.harness import run_mixed_state_diagnostic
from qsnapshot.circuit import mottonen_prepare
from qsnapshot.noise import NoiseParams, calibrated_noise_model

prep = mottonen_prepare(random_pure_state(1, Rng(1)))
for signal in ({}, {"shots": 10, "rng": Rng(2)},
               {"noise_model": calibrated_noise_model(NoiseParams()),
                "trajectories": 2, "rng": Rng(3)}):
    train_qeswap(FidelityOracle(prep, **signal), EsConfig(population=2, max_iter=2))
run_mixed_state_diagnostic(max_iter=1, population=2)

work = Path(sys.argv[1])
(work / "s.json").write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [cli.main(["deposit", "--state", str(work / "s.json"),
                       "--store", str(work / "st")])]
    ident = out.getvalue().split()[-1]
    codes += [cli.main(["withdraw", ident, "--store", str(work / "st"),
                        "--out-file", str(work / "w.json")]),
              cli.main(["list", "--store", str(work / "st")])]
UNWANTED = ("scipy", "concurrent.futures", "logging")
before = [name for name in UNWANTED if name in sys.modules]
train_gradient(FidelityOracle(prep), GradientConfig(epochs=1, stop_threshold=2.0))  # one Adam step
after = [name for name in UNWANTED if name in sys.modules]
print(json.dumps({"codes": codes, "before": before, "after": after}))
"""


def test_no_process_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"codes": [0, 0, 0], "before": [], "after": []}
