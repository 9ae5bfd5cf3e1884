import shutil
import subprocess
from pathlib import Path

import pytest

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "fourblocks" / "_subdiv.c"


@pytest.fixture(scope="session")
def compiled_library(tmp_path_factory):
    """Path of the C kernel built into a temporary directory.

    It is never built into src/: a library next to the package would switch
    every later import, the benchmark's included, to the compiled kernel.
    """
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    library = tmp_path_factory.mktemp("kernel") / "_subdiv.so"
    subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", str(KERNEL_SOURCE), "-o", str(library)],
        check=True,
    )
    return library


@pytest.fixture(scope="session")
def compiled_kernel(compiled_library):
    """The C kernel, loaded through its ctypes binding."""
    from fourblocks._subdiv_ctypes import CompiledKernel

    return CompiledKernel(str(compiled_library))
