"""gl2trace: exact spherical Hecke algebra, orbital integral, and
trace-comparison toolkit for GL(2) over p-adic fields at desk scale.

Every submodule is registered in sys.modules at package import, but
compiles and runs only on the first read of one of its attributes, so a
subcommand pays for the modules it uses.  `gl2trace.cli` binds no
submodule name, so `import gl2trace.cli` runs cli alone.  Import names
from the submodules (`from gl2trace.hecke import convolve`); the package
root re-exports none.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("rings", "hecke", "basicfn", "chargroup", "orbital", "assembly",
              "kernels", "spectral"):
    globals()[_name] = _lazy(_name)
