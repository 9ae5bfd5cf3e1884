from setuptools import Extension, setup

# _subdiv.c is plain C with no Python headers: it builds into a shared
# library that fourblocks.witness loads with ctypes. Without it the package
# falls back to the pure-Python kernel.
setup(ext_modules=[Extension("fourblocks._subdiv", ["src/fourblocks/_subdiv.c"])])
