"""Setup shim for environments without the `wheel` package (offline).

Metadata lives in pyproject.toml.

The compiled engine backend's C extension (repro.sim._ckernel) is built
here *best-effort*: ``optional=True`` plus the failure-tolerant build_ext
below means a box without a working C toolchain still installs cleanly
and ``auto`` resolution degrades to the fused backend at run time (see
repro.sim.backend).
"""
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Never fail the install over the optional C speedup.

    setuptools' ``optional=True`` already tolerates per-extension compile
    errors, but a missing compiler can abort earlier (at configure time);
    swallow that too and fall back to the pure-Python backends.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(f"warning: skipping optional C extension "
              f"repro.sim._ckernel ({exc!r}); the compiled engine "
              f"backend will be unavailable (auto degrades to fused)")


setup(
    ext_modules=[
        Extension(
            "repro.sim._ckernel",
            sources=["src/repro/sim/_ckernel.c"],
            optional=True,
        ),
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
