"""A log written under one BLAS kernel verifies under another.

numpy may link a DYNAMIC_ARCH OpenBLAS, which picks its kernel for the CPU
it runs on; ``OPENBLAS_CORETYPE`` picks another one on the same machine.
Each log is written under the default kernel and verified under a plain
AVX2 kernel (Haswell) and under the generic one (Prescott, which OpenBLAS
reports as Katmai), every run in its own interpreter. Replay across kernels
is out of scope: the certificate solvers' products round differently there.
"""

import re
import subprocess
import sys

import numpy as np
import pytest

LOGS = {"study1": ["--preset", "study1", "--n0", "40"],
        "study2-cover": ["--preset", "study2", "--n0", "20", "--cover"]}


def openblas_configuration() -> str:
    """numpy's OpenBLAS build line, or "" for another BLAS or an old numpy."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints it
        return ""
    return deps.get("blas", {}).get("openblas configuration", "")


def drostream(src_env, kernel, *args):
    """The command line in a child interpreter under OpenBLAS ``kernel``
    (None: the default); returns the process and the core OpenBLAS
    reports, or None if it reports none."""
    env = dict(src_env, OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run([sys.executable, "-m", "drostream.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)
    core = re.search(r"^Core: (\S+)", proc.stderr, re.MULTILINE)
    return proc, core and core.group(1)


@pytest.fixture(scope="module")
def logs(tmp_path_factory, src_env):
    """Each log's run directory and the core it was written under."""
    if "DYNAMIC_ARCH" not in openblas_configuration():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no "
                    "other kernel can be chosen")
    written = {}
    for name, args in LOGS.items():
        out = tmp_path_factory.mktemp("kernels") / name
        proc, core = drostream(src_env, None, "run", "--seed", "0", *args,
                               "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        written[name] = out, core
    return written


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
@pytest.mark.parametrize("log", LOGS)
def test_a_log_verifies_under_another_blas_kernel(logs, src_env, log, kernel):
    out, written_under = logs[log]
    proc, core = drostream(src_env, kernel, "verify", str(out))
    if core is None or core == written_under:
        pytest.skip(f"OpenBLAS reports core {core} under OPENBLAS_CORETYPE="
                    f"{kernel} and {written_under} for the log, so no two "
                    "kernels are compared")
    assert proc.returncode == 0, proc.stdout + proc.stderr
