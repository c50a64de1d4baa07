"""The stub owns the reply: every way out of a call returns it to its pool.

A door handler wrapper corrupts the server's real reply — cutting its
results short, or replacing its status byte — and the client call must
raise while leaving every domain's buffer pool balanced.  Both stub
flavours (the general ``remote_call`` stub and a fused stub from
``specialize``) run untraced and traced.
"""

from __future__ import annotations

import pytest

from repro import Environment, compile_idl, narrow
from repro.idl.specialize import specialize
from repro.marshal.errors import BufferUnderflowError, MarshalError, ReplyStatusError
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import COUNTER_IDL, CounterImpl

#: reply bytes of ``add``: INT8 tag + status, INT32 tag + 4 value bytes
_STATUS_BYTES = 2


def _world(fused: bool, traced: bool):
    env = Environment()
    module = compile_idl(COUNTER_IDL, module_name="tests.reply_hygiene")
    if fused:
        specialize(module, "counter", "singleton")
    binding = module.binding("counter")
    server = env.create_domain("alpha", "server")
    client = env.create_domain("alpha", "client")
    env.bind(server, "/hygiene/counter", SingletonServer(server).export(CounterImpl(), binding))
    obj = narrow(env.resolve(client, "/hygiene/counter"), binding)
    assert obj._subcontract.id == "singleton"
    if traced:
        env.install_tracer()
    return env, obj


def _corrupt_replies(obj, corrupt) -> None:
    door = obj._rep.door.door
    real = door.handler

    def handler(request):
        reply = real(request)
        corrupt(reply.data)
        return reply

    door.handler = handler


def _truncate(data: bytearray) -> None:
    del data[_STATUS_BYTES:]


def _unknown_status(data: bytearray) -> None:
    data[1] = 7


def _assert_pools_balanced(env) -> None:
    for domain in env.kernel.domains.values():
        assert domain.buffer_acquires == domain.buffer_releases, domain.name


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("fused", [False, True], ids=["general", "fused"])
class TestReplyHygiene:
    def test_stub_flavour(self, fused, traced):
        env, obj = _world(fused, traced)
        assert (obj._method_table["add"].__name__.startswith("_spec_")) == fused

    def test_truncated_reply_is_recycled(self, fused, traced):
        env, obj = _world(fused, traced)
        assert obj.add(1) == 1
        _corrupt_replies(obj, _truncate)
        with pytest.raises(BufferUnderflowError):
            obj.add(2)
        _assert_pools_balanced(env)

    def test_unknown_status_is_refused(self, fused, traced):
        env, obj = _world(fused, traced)
        _corrupt_replies(obj, _unknown_status)
        with pytest.raises(ReplyStatusError, match="unknown reply status byte 7"):
            obj.add(2)
        _assert_pools_balanced(env)
        assert issubclass(ReplyStatusError, MarshalError)

    def test_good_replies_still_flow(self, fused, traced):
        env, obj = _world(fused, traced)
        assert obj.add(4) == 4
        assert obj.total() == 4
        _assert_pools_balanced(env)
