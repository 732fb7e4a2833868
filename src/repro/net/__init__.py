"""Network substrate: frames, links, switches, and topology wiring."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.device": ("ForwardingTable", "Node", "Port"),
    "repro.net.link": ("Channel", "Impairments", "Link"),
    "repro.net.packet": ("PLAIN_UDP_PORT", "PMNET_UDP_PORT_MAX",
                         "PMNET_UDP_PORT_MIN", "Frame", "RawPayload",
                         "is_pmnet_port"),
    "repro.net.switch": ("Switch",),
    "repro.net.topology": ("Topology",),
})

__all__ = [
    "Node", "Port", "ForwardingTable",
    "Channel", "Link", "Impairments",
    "Frame", "RawPayload", "is_pmnet_port",
    "PLAIN_UDP_PORT", "PMNET_UDP_PORT_MIN", "PMNET_UDP_PORT_MAX",
    "Switch", "Topology",
]
