import pytest

from repro.messaging import BasicHeader, Transport, VirtualAddress, VirtualNetworkChannel

from tests.messaging_helpers import Blob, Collector, make_world


def add_vnode(world, node, vnode_id: bytes, name: str):
    vaddr = VirtualAddress(node.address.ip, node.address.port, vnode_id)
    app = world.system.create(Collector, vaddr, name=name)
    vnc = VirtualNetworkChannel(world.system, node.network)
    vnc.connect_vnode(app.definition.net, vnode_id)
    world.system.start(app)
    return app, vaddr


class TestVnodeRouting:
    def test_local_vnodes_message_each_other_without_serialization(self):
        world = make_world(n_hosts=1)
        node = world.nodes[0]
        app1, addr1 = add_vnode(world, node, b"v1", "vnode-1")
        app2, addr2 = add_vnode(world, node, b"v2", "vnode-2")
        world.sim.run()

        msg = Blob(BasicHeader(addr1, addr2, Transport.TCP), "intra", 100)
        app1.definition.trigger(msg, app1.definition.net)
        world.sim.run()

        assert [m.tag for m in app2.definition.received] == ["intra"]
        assert app2.definition.received[0] is msg  # reflected, same object
        assert app1.definition.received == []  # selector keeps it out of v1
        assert node.net_def.counters["reflected"] == 1

    def test_cross_host_vnode_delivery(self):
        world = make_world(n_hosts=2)
        a, b = world.nodes
        app_a, addr_a = add_vnode(world, a, b"va", "vnode-a")
        app_b, addr_b = add_vnode(world, b, b"vb", "vnode-b")
        world.sim.run()

        msg = Blob(BasicHeader(addr_a, addr_b, Transport.TCP), "wan", 100)
        app_a.definition.trigger(msg, app_a.definition.net)
        world.sim.run()

        assert [m.tag for m in app_b.definition.received] == ["wan"]

    def test_invalid_vnode_id_rejected(self):
        world = make_world(n_hosts=1)
        vnc = VirtualNetworkChannel(world.system, world.nodes[0].network)
        with pytest.raises(ValueError):
            vnc.connect_vnode(world.nodes[0].app_def.net, b"")
