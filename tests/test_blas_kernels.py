"""A log written under one BLAS kernel verifies under another, and the hull
ascent is the reference loop bit for bit under each kernel.

numpy may link a DYNAMIC_ARCH OpenBLAS, which picks its kernel for the CPU
it runs on; ``OPENBLAS_CORETYPE`` picks another one on the same machine.
Each log is written under the default kernel and verified under a plain
AVX2 kernel (Haswell) and under the generic one (Prescott, which OpenBLAS
reports as Katmai), every run in its own interpreter. Replay across kernels
is out of scope: the certificate solvers' products round differently there.

The generic kernel's vector dot product rounds differently with where its
operands sit in memory, so the ascent's bitwise checks against
``afwa_quadratic_reference`` run again in a child interpreter under each of
the two kernels.
"""

import re
import subprocess
import sys
from pathlib import Path

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


def python(src_env, kernel, *args):
    """``python args`` in a child interpreter under OpenBLAS ``kernel``
    (None: the default); returns the process and the core OpenBLAS
    reports, or None if it reports none."""
    env = dict(src_env, OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    core = re.search(r"^Core: (\S+)", proc.stderr, re.MULTILINE)
    return proc, core and core.group(1)


def drostream(src_env, kernel, *args):
    """The command line in a child interpreter, as ``python`` runs it."""
    return python(src_env, kernel, "-m", "drostream.cli", *args)


def require_dynamic_arch():
    if "DYNAMIC_ARCH" not in openblas_configuration():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no "
                    "other kernel can be chosen")


@pytest.fixture(scope="module")
def logs(tmp_path_factory, src_env):
    """Each log's run directory and the core it was written under."""
    require_dynamic_arch()
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


TESTS = Path(__file__).resolve().parent
ASCENT_CHECKS = [
    TESTS / "test_simplex.py::test_afwa_is_bitwise_the_reference_loop",
    TESTS / "test_simplex.py::"
    "test_afwa_is_bitwise_the_reference_loop_from_sparse_starts",
    TESTS / "test_runner.py::"
    "test_pinned_runs_log_the_same_bytes_on_the_reference_ascent",
]


@pytest.fixture(scope="module")
def default_core(src_env):
    """The core OpenBLAS picks when no kernel is chosen."""
    require_dynamic_arch()
    return python(src_env, None, "-c", "import numpy")[1]


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_the_ascent_is_the_reference_loop_under_another_blas_kernel(
        src_env, default_core, kernel):
    # -s lets OpenBLAS's report of its core through pytest's capture
    proc, core = python(src_env, kernel, "-m", "pytest", "-q", "-s",
                        "-p", "no:cacheprovider", *map(str, ASCENT_CHECKS))
    if core is None or core == default_core:
        pytest.skip(f"OpenBLAS reports core {core} under OPENBLAS_CORETYPE="
                    f"{kernel} and {default_core} by default, so no two "
                    "kernels are compared")
    assert proc.returncode == 0, proc.stdout[-4000:]
