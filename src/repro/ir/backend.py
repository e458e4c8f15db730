"""Execution backends: how concrete layers run IR translation blocks.

One :class:`ExecutionBackend` is the strategy shared by every layer that
executes recovered or translated code concretely -- the DBT mode of the
concrete CPU (:mod:`repro.vm.cpu`), the synthesized-driver runtime
(:mod:`repro.templates.runtime` over :mod:`repro.synth.module`), and the
symbolic executor's concrete fast path (:mod:`repro.symex.executor`).
Both backends execute one block against an :class:`~repro.ir.interp.IrEnv`
-compatible environment and return a
:class:`~repro.ir.interp.BlockResult`:

* ``interp`` -- the tree-walking interpreter (:func:`repro.ir.interp.run_block`),
  zero warm-up cost, used as the differential reference;
* ``compiled`` -- the generated-source tier
  (:func:`repro.ir.compile.compile_block`), the default everywhere.
"""

from functools import partial

from repro.ir.compile import compile_block
from repro.ir.interp import run_block

#: Backend every layer uses when none is requested.
DEFAULT_BACKEND = "compiled"


class ExecutionBackend:
    """Strategy for executing one translation block concretely."""

    name = "base"

    def bind(self, block):
        """The function ``fn(env) -> BlockResult`` that executes
        ``block``; callers whose block set never changes resolve each
        block once and keep the function."""
        raise NotImplementedError

    def run(self, block, env):
        """Execute ``block`` in ``env``; returns a ``BlockResult``."""
        raise NotImplementedError


class InterpBackend(ExecutionBackend):
    """Tree-walking reference backend."""

    name = "interp"

    def bind(self, block):
        return partial(run_block, block)

    def run(self, block, env):
        return run_block(block, env)


class CompiledBackend(ExecutionBackend):
    """Generated-source backend (one Python function per block)."""

    name = "compiled"

    def bind(self, block):
        return compile_block(block)

    def run(self, block, env):
        return compile_block(block)(env)


BACKENDS = {
    "interp": InterpBackend(),
    "compiled": CompiledBackend(),
}


def get_backend(spec, default=DEFAULT_BACKEND):
    """Resolve ``spec`` (None, a name, or a backend instance)."""
    if spec is None:
        spec = default
    if isinstance(spec, ExecutionBackend):
        return spec
    backend = BACKENDS.get(spec)
    if backend is None:
        raise ValueError("unknown execution backend %r (one of %s)"
                         % (spec, ", ".join(sorted(BACKENDS))))
    return backend
