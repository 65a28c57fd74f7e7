"""Build hook for the optional compiled arithmetic core.

The compiled backend is one hand-written C file,
``src/otsske/backend/_core.c``, and needs only a C compiler and the Python
headers.

The package is fully functional without the extension (the pure-Python
backend is selected at import); a failed compile therefore downgrades to
a warning instead of failing the install.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any build failure is non-fatal
            warnings.warn(f"compiled backend skipped ({exc}); using the pure-Python backend")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            warnings.warn(f"compiled backend skipped ({exc}); using the pure-Python backend")


core = Extension("otsske.backend._core", ["src/otsske/backend/_core.c"], extra_compile_args=["-O3"])
setup(ext_modules=[core], cmdclass={"build_ext": OptionalBuildExt})
