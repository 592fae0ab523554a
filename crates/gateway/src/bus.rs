//! The gateway's internal publish/subscribe bus: the enterprise-
//! integration backbone of §III-B, decoupling southbound adapters from
//! northbound consumers (and from each other).

use crate::model::Measurement;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

type Queue = RefCell<VecDeque<Measurement>>;

struct Sub {
    prefix: String,
    queue: Weak<Queue>,
}

/// A topic bus: subscribers register a point-name prefix; every
/// published measurement is fanned out to all matching subscribers.
/// The bus and its receivers live on the gateway's thread.
///
/// # Examples
///
/// ```
/// use iiot_gateway::bus::Bus;
/// use iiot_gateway::model::{Measurement, Quality, Unit};
///
/// let bus = Bus::new();
/// let boiler = bus.subscribe("plant/boiler");
/// bus.publish(&Measurement {
///     point: "plant/boiler/temp".into(),
///     value: 80.0,
///     unit: Unit::Celsius,
///     quality: Quality::Good,
///     timestamp_us: 0,
///     device: "plc".into(),
/// });
/// assert_eq!(boiler.try_recv().expect("delivered").value, 80.0);
/// ```
#[derive(Default)]
pub struct Bus {
    subs: RefCell<Vec<Sub>>,
}

impl Bus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes to all points whose name starts with `prefix`
    /// (empty prefix = everything).
    pub fn subscribe(&self, prefix: &str) -> Receiver {
        let queue = Rc::default();
        self.subs.borrow_mut().push(Sub {
            prefix: prefix.to_owned(),
            queue: Rc::downgrade(&queue),
        });
        Receiver { queue }
    }

    /// Publishes a measurement; returns how many subscribers received
    /// it. Subscriptions whose receiver was dropped are pruned.
    pub fn publish(&self, m: &Measurement) -> usize {
        let mut delivered = 0;
        self.subs.borrow_mut().retain(|s| {
            let Some(queue) = s.queue.upgrade() else {
                return false;
            };
            if m.point.starts_with(&s.prefix) {
                queue.borrow_mut().push_back(m.clone());
                delivered += 1;
            }
            true
        });
        delivered
    }

    /// Number of live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.subs
            .borrow()
            .iter()
            .filter(|s| s.queue.strong_count() > 0)
            .count()
    }
}

/// The receiving end of a [`Bus::subscribe`]: measurements queue here
/// in publication order until taken. Dropping it ends the subscription.
#[derive(Debug)]
pub struct Receiver {
    queue: Rc<Queue>,
}

impl Receiver {
    /// Takes the oldest queued measurement, if any.
    pub fn try_recv(&self) -> Option<Measurement> {
        self.queue.borrow_mut().pop_front()
    }

    /// Takes every queued measurement, oldest first.
    pub fn try_iter(&self) -> impl Iterator<Item = Measurement> + '_ {
        std::iter::from_fn(|| self.try_recv())
    }
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bus")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Quality, Unit};

    fn m(point: &str, value: f64) -> Measurement {
        Measurement {
            point: point.into(),
            value,
            unit: Unit::Raw,
            quality: Quality::Good,
            timestamp_us: 0,
            device: "d".into(),
        }
    }

    #[test]
    fn prefix_filtering() {
        let bus = Bus::new();
        let all = bus.subscribe("");
        let line1 = bus.subscribe("plant/line1");
        assert_eq!(bus.publish(&m("plant/line1/temp", 1.0)), 2);
        assert_eq!(bus.publish(&m("plant/line2/temp", 2.0)), 1);
        assert_eq!(all.try_iter().count(), 2);
        let got: Vec<Measurement> = line1.try_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].point, "plant/line1/temp");
    }

    #[test]
    fn dropped_subscriber_pruned() {
        let bus = Bus::new();
        let rx = bus.subscribe("a");
        assert_eq!(bus.subscriber_count(), 1);
        drop(rx);
        assert_eq!(bus.publish(&m("a/x", 1.0)), 0);
        assert_eq!(bus.subscriber_count(), 0);
    }

    #[test]
    fn dropped_subscriber_pruned_by_unmatched_publish() {
        let bus = Bus::new();
        drop(bus.subscribe("a"));
        // A publish its prefix never matches still prunes it.
        assert_eq!(bus.publish(&m("b/x", 1.0)), 0);
        assert_eq!(bus.subscriber_count(), 0);
        assert!(bus.subs.borrow().is_empty());
    }
}
