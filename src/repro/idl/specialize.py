"""Specialized stubs for (type, subcontract) combinations (Section 9.1).

"As a future direction, we are interested in providing specialized stubs
for some particularly popular and performance-critical combinations of
types and subcontracts.  We would still keep the general purpose stubs
available for these types, so as to be able to deal with different
subcontracts, but when we were lucky enough to receive an object that
happened to be of the right type and subcontract we would be able to use
the specialized stubs."

:func:`specialize` generates a *fused* stub table for one interface and
one single-door subcontract: the subcontract's invoke is inlined into the
stub, eliminating the method-table indirections, the argument-marshalling
closures, and the two client-side indirect calls Section 9.3 charges.
The table is installed on the interface binding; object fabrication
(:meth:`ClientSubcontract.make_object`) picks it up automatically when —
and only when — the fabricating subcontract matches.  Everything else
keeps the general-purpose stubs, so flexibility is not lost.

Only subcontracts whose representation is a bare door identifier and
whose invoke is a plain door call can be fused this way; that is exactly
the "popular and performance-critical" case the paper has in mind.
"""

from __future__ import annotations

import itertools
import linecache
from typing import TYPE_CHECKING

from repro.idl.codegen import _Emitter, _emit_put, _get_expr
from repro.idl.compiler import IdlModule
from repro.idl.rtypes import OperationSpec

if TYPE_CHECKING:
    from repro.core.object import MethodTable
    from repro.idl.rtypes import InterfaceBinding

__all__ = ["specialize", "FUSABLE_SUBCONTRACTS"]

#: subcontracts whose client vector is exactly "door_call on rep.door"
FUSABLE_SUBCONTRACTS = frozenset({"singleton", "simplex"})

_spec_counter = itertools.count(1)

_HEADER = """\
# Generated by repro.idl.specialize -- fused stubs, do not edit.
from repro.core.stubs import STATUS_OK, reply_status_error
from repro.idl.genruntime import (
    marshal_door,
    marshal_door_copy,
    marshal_object,
    marshal_object_copy,
    unmarshal_any,
)
"""


def _emit_call_body(out: _Emitter, op: OperationSpec, traced: bool) -> None:
    """The shared marshal/call/unmarshal body of a fused stub."""
    out.line("_buf = _domain.acquire_buffer()")
    out.line("try:")
    out.push()
    out.line(f'_buf.put_string("{op.name}")')
    for param in op.params:
        _emit_put(out, param.type, param.name, "_buf", "_domain", param.mode)
    if traced:
        out.line('_span.attrs["request_bytes"] = _buf.size')
    # The fused invoke: what SingleDoorClient.invoke does, inlined.
    out.line('_kernel.clock.charge("memory_copy_byte", _buf.size)')
    out.line("_reply = _kernel.door_call(_domain, _obj._rep.door, _buf)")
    out.pop()
    out.line("finally:")
    out.push()
    out.line("_buf.recycle()")
    out.pop()
    if traced:
        out.line('_span.attrs["reply_bytes"] = _reply.size')
    out.line("if _reply.region is None:")
    out.push()
    out.line('_kernel.clock.charge("memory_copy_byte", _reply.size)')
    out.pop()
    # Every way out recycles the reply: results, a remote error, an
    # unknown status byte, or a failed decode.
    out.line("try:")
    out.push()
    out.line("_status = _reply.get_int8()")
    out.line("if _status != STATUS_OK:")
    out.push()
    out.line("raise reply_status_error(_reply, _status)")
    out.pop()
    out.line(f"_result = {_get_expr(op.result, '_reply', '_domain')}")
    out.pop()
    out.line("except BaseException:")
    out.push()
    out.line("_reply.recycle()")
    out.line("raise")
    out.pop()
    out.line("_reply.release()")
    out.line("return _result")


def _emit_fused_stub(
    out: _Emitter, iface_name: str, op: OperationSpec, subcontract_id: str
) -> None:
    params = ", ".join(p.name for p in op.params)
    arglist = f"_obj{', ' + params if params else ''}"
    name = f"_spec_{iface_name}_{op.name}"
    traced_name = f"_spec_traced_{iface_name}_{op.name}"

    # Traced twin: same protocol wrapped in the client invoke span.  It is
    # a separate function so the fast stub below stays branch-for-branch
    # identical to the untraced original (plus one enabled check).
    out.line(f"def {traced_name}({arglist}):")
    out.push()
    out.line("_domain = _obj._domain")
    out.line("_kernel = _domain.kernel")
    out.line(
        f'with _kernel.tracer.begin_invoke(_domain, "{op.name}", '
        f'"{subcontract_id}", fused=True) as _span:'
    )
    out.push()
    _emit_call_body(out, op, traced=True)
    out.pop()
    out.pop()
    out.line()

    out.line(f"def {name}({arglist}):")
    out.push()
    out.line("_domain = _obj._domain")
    out.line("_kernel = _domain.kernel")
    out.line("if _kernel.tracer.enabled:")
    out.push()
    out.line(f"return {traced_name}({arglist})")
    out.pop()
    _emit_call_body(out, op, traced=False)
    out.pop()
    out.line()


def generate_specialized_source(
    binding: "InterfaceBinding", subcontract_id: str = "singleton"
) -> str:
    """The fused stub source for every operation of ``binding``."""
    out = _Emitter()
    for line in _HEADER.splitlines():
        out.line(line)
    out.line()
    for op in binding.operations.values():
        _emit_fused_stub(out, binding.name, op, subcontract_id)
    return out.source()


def specialize(
    module: IdlModule, interface_name: str, subcontract_id: str
) -> "MethodTable":
    """Generate and install fused stubs for one (type, subcontract) pair.

    Returns the installed method table.  Raises ValueError for
    subcontracts whose invoke cannot be fused into a plain door call.
    """
    if subcontract_id not in FUSABLE_SUBCONTRACTS:
        raise ValueError(
            f"subcontract {subcontract_id!r} cannot be fused into stubs "
            f"(fusable: {sorted(FUSABLE_SUBCONTRACTS)}); its invoke is not "
            f"a bare door call"
        )
    binding = module.binding(interface_name)
    source = generate_specialized_source(binding, subcontract_id)
    filename = f"<idl-specialized:{module.name}.{interface_name}#{next(_spec_counter)}>"
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    # Fused stubs may reference the module's struct helpers and bindings.
    namespace = dict(module._namespace)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    table = {
        op: namespace[f"_spec_{interface_name}_{op}"] for op in binding.operations
    }
    binding.install_specialized_table(subcontract_id, table)
    return table
