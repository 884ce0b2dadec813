//! The thread-local collector: how deep protocol code reaches the hub.
//!
//! The simulator installs its hub handle here for the duration of each node
//! callback; the instrumentation macros route through [`emit`] and friends,
//! which look the handle up and do nothing when none is installed (protocol
//! code running outside a simulation, e.g. in unit tests). The simulation is
//! single-threaded, so "thread-local" is simply "this simulation while its
//! event loop runs" — installation nests and restores like a dynamic scope.

use std::cell::RefCell;
use std::rc::Rc;

use crate::hub::TelemetryHub;
use crate::metrics::{CtrId, GaugeId, HistId, SeriesId};
use crate::trace::Layer;

thread_local! {
    static CURRENT: RefCell<Option<Rc<RefCell<TelemetryHub>>>> = const { RefCell::new(None) };
}

/// Scope guard returned by [`install`]; restores the previously installed
/// hub (if any) when dropped.
#[derive(Debug)]
pub struct HubGuard {
    prev: Option<Rc<RefCell<TelemetryHub>>>,
}

/// Installs `hub` as the current collector target, returning a guard that
/// restores the previous target on drop. Nested simulations (a simulation
/// driven from inside another's callback) therefore observe their own hubs.
#[must_use = "the hub is uninstalled when the guard drops"]
pub fn install(hub: Rc<RefCell<TelemetryHub>>) -> HubGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(hub));
    HubGuard { prev }
}

/// Installs `hub` unless that same hub is already the current target, in
/// which case no work is done and no guard is needed. The simulator's event
/// loop installs once per run and its per-event dispatch then hits the
/// cheap pointer-equality path; entry points that dispatch outside a run
/// loop (or a nested simulation's callbacks) still get a proper scoped
/// install.
#[must_use = "when Some, the hub is uninstalled when the guard drops"]
pub fn install_if_needed(hub: &Rc<RefCell<TelemetryHub>>) -> Option<HubGuard> {
    let already = CURRENT.with(|c| c.borrow().as_ref().is_some_and(|cur| Rc::ptr_eq(cur, hub)));
    if already {
        None
    } else {
        Some(install(Rc::clone(hub)))
    }
}

impl Drop for HubGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Runs `f` against the installed hub, if any.
///
/// Returns `None` when no hub is installed. Must not be called while the
/// caller already holds a borrow of the same hub (the simulator only borrows
/// outside node callbacks, so protocol code is always safe).
pub fn with_hub<R>(f: impl FnOnce(&mut TelemetryHub) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let cur = c.borrow();
        cur.as_ref().map(|rc| f(&mut rc.borrow_mut()))
    })
}

/// True when a hub is currently installed.
pub fn installed() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Emits a trace record stamped with the hub's current simulated time.
#[inline]
pub fn emit(node: u32, layer: Layer, kind: u8, a: u64, b: u64) {
    with_hub(|h| h.trace(node, layer, kind, a, b));
}

/// Adds to a per-node counter slot.
#[inline]
pub fn counter_add(node: u32, id: CtrId, v: u64) {
    with_hub(|h| h.node_ctr_add(node as usize, id, v));
}

/// Sets a per-node gauge slot.
#[inline]
pub fn gauge_set(node: u32, id: GaugeId, v: u64) {
    with_hub(|h| h.node_gauge_set(node as usize, id, v));
}

/// Raises a per-node gauge slot to `v` if larger.
#[inline]
pub fn gauge_max(node: u32, id: GaugeId, v: u64) {
    with_hub(|h| h.node_gauge_max(node as usize, id, v));
}

/// Records into a per-node histogram slot.
#[inline]
pub fn hist_record(node: u32, id: HistId, v: u64) {
    with_hub(|h| h.node_hist_record(node as usize, id, v));
}

/// Appends to a per-node series slot.
#[inline]
pub fn series_record(node: u32, id: SeriesId, v: u64) {
    with_hub(|h| h.node_series_push(node as usize, id, v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ctr;

    #[test]
    fn emit_without_hub_is_a_noop() {
        assert!(!installed());
        emit(0, Layer::Sim, crate::kind::MSG_DELIVER, 0, 0);
        counter_add(0, ctr::MSGS_SENT, 1);
    }

    #[test]
    fn install_scopes_and_nests() {
        let outer = Rc::new(RefCell::new(TelemetryHub::new(1)));
        outer.borrow_mut().ensure_nodes(1);
        let inner = Rc::new(RefCell::new(TelemetryHub::new(2)));
        inner.borrow_mut().ensure_nodes(1);
        {
            let _g1 = install(outer.clone());
            counter_add(0, ctr::MSGS_SENT, 1);
            {
                let _g2 = install(inner.clone());
                counter_add(0, ctr::MSGS_SENT, 10);
            }
            counter_add(0, ctr::MSGS_SENT, 1);
        }
        assert!(!installed());
        assert_eq!(outer.borrow().node_counter(0, ctr::MSGS_SENT), 2);
        assert_eq!(inner.borrow().node_counter(0, ctr::MSGS_SENT), 10);
    }

    #[test]
    fn install_if_needed_skips_when_hub_already_current() {
        let hub = Rc::new(RefCell::new(TelemetryHub::new(7)));
        hub.borrow_mut().ensure_nodes(1);
        let other = Rc::new(RefCell::new(TelemetryHub::new(8)));
        {
            let outer = install_if_needed(&hub);
            assert!(outer.is_some(), "nothing installed yet");
            assert!(install_if_needed(&hub).is_none(), "same hub needs no guard");
            let inner = install_if_needed(&other);
            assert!(inner.is_some(), "different hub must scope-install");
            drop(inner);
            counter_add(0, ctr::MSGS_SENT, 1);
        }
        assert!(!installed());
        assert_eq!(hub.borrow().node_counter(0, ctr::MSGS_SENT), 1);
    }

    #[test]
    fn counter_add_to_unknown_node_is_ignored() {
        let hub = Rc::new(RefCell::new(TelemetryHub::new(3)));
        let _g = install(hub.clone());
        counter_add(u32::MAX, ctr::MSGS_SENT, 5);
        assert_eq!(hub.borrow().counter_total(ctr::MSGS_SENT), 0);
    }
}
