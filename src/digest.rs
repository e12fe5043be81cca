//! One state digest for the root tests: [`render`] writes out everything a
//! run leaves behind, and [`fnv1a`] hashes it (or any other rendering a
//! test pins) to one platform-independent `u64`.

use netsim::engine::FlowState;
use switchpointer::testbed::Testbed;

/// FNV-1a, 64 bits: a digest that is the same on every platform and
/// toolchain, unlike `std`'s hashers.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one run leaves behind, as text in a fixed order — every host's
/// flow store and trigger log, every switch's pointer hierarchy and
/// counters, per-flow delivery counts and bytes, the drop list and
/// per-flow TCP retransmits and timeouts — with the TCP timeout total
/// alongside.
pub fn render(tb: &Testbed) -> (String, u64) {
    let topo = tb.sim.topo();
    let mut out = String::new();
    for h in topo.hosts() {
        let host = tb.hosts[h].borrow();
        out += &format!(
            "host {h:?} {:?} {:?} {}\n",
            host.store,
            host.triggers(),
            host.decode_failures
        );
    }
    for s in topo.switches() {
        let sw = tb.switches[s].borrow();
        out += &format!(
            "switch {s:?} {:?} {} {}\n",
            sw.pointers, sw.forwarded, sw.tagged
        );
    }
    for (f, _) in tb.sim.flows() {
        out += &format!(
            "flow {f:?} {} {}\n",
            tb.sim.traces.rx_packets(f),
            tb.sim.traces.rx_bytes(f)
        );
    }
    out += &format!("drops {:?}\n", tb.sim.traces.drops);
    let mut timeouts = 0;
    for (f, state) in tb.sim.flows() {
        let (retransmits, flow_timeouts) = match state {
            FlowState::Udp => continue,
            FlowState::TcpPending => (0, 0),
            FlowState::Tcp(conn) => (conn.retransmits, conn.timeouts),
        };
        out += &format!("tcp {f:?} {retransmits} {flow_timeouts}\n");
        timeouts += flow_timeouts;
    }
    (out, timeouts)
}
