//! The GATT adapter over arbitrary attribute tables: it never panics,
//! reports a Good reading only for a characteristic it knows at that
//! characteristic's exact length, and carries every in-range reading
//! to within half a unit of its last digit.

use iiot_gateway::gatt::{uuid, CharMap, GattAdapter, GattDevice};
use iiot_gateway::{Adapter, Quality, Unit};
use proptest::prelude::*;

/// The one length each characteristic the adapter decodes must have.
fn exact_len(id: u16) -> Option<usize> {
    match id {
        uuid::TEMPERATURE | uuid::HUMIDITY => Some(2),
        uuid::BATTERY => Some(1),
        _ => None,
    }
}

/// An adapter over `device` that maps every handle in `handles`.
fn adapter(device: GattDevice, handles: impl IntoIterator<Item = u16>) -> GattAdapter {
    let map = handles
        .into_iter()
        .map(|handle| CharMap {
            handle,
            point: format!("p{handle}"),
        })
        .collect();
    GattAdapter::new("tag", device, map)
}

/// One temperature and one humidity characteristic, set to `t` °C and
/// `h` %, read back.
fn round_trip(t: f64, h: f64) -> (f64, f64, Vec<Quality>) {
    let mut d = GattDevice::new();
    d.add_characteristic(1, uuid::TEMPERATURE, vec![0, 0]);
    d.add_characteristic(2, uuid::HUMIDITY, vec![0, 0]);
    d.set_temperature(1, t);
    d.set_humidity(2, h);
    let ms = adapter(d, [1, 2]).poll(0);
    (
        ms[0].value,
        ms[1].value,
        ms.iter().map(|m| m.quality).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_attributes_never_panic_and_are_good_only_at_their_length(
        attrs in proptest::collection::vec(
            (
                prop_oneof![
                    Just(uuid::TEMPERATURE),
                    Just(uuid::HUMIDITY),
                    Just(uuid::BATTERY),
                    any::<u16>(),
                ],
                proptest::collection::vec(any::<u8>(), 0..5),
            ),
            1..8,
        ),
        unmapped in any::<u16>(),
    ) {
        let mut d = GattDevice::new();
        for (handle, (id, bytes)) in attrs.iter().enumerate() {
            d.add_characteristic(handle as u16, *id, bytes.clone());
        }
        // A mapped handle with no attribute behind it is skipped.
        let handles = (0..attrs.len() as u16).chain([unmapped.max(attrs.len() as u16)]);
        let mut a = adapter(d, handles);
        let points = a.points();
        let ms = a.poll(7);
        prop_assert_eq!(ms.len(), attrs.len());
        for (m, (id, bytes)) in ms.iter().zip(&attrs) {
            let decodable = exact_len(*id) == Some(bytes.len());
            if m.quality == Quality::Good {
                prop_assert!(decodable, "{id:#06x} {bytes:?} read as Good");
                prop_assert!(m.value.is_finite());
            } else {
                prop_assert_eq!(m.quality, Quality::Bad);
                prop_assert!(m.value.is_nan());
            }
            if !decodable {
                prop_assert_eq!(m.unit, Unit::Raw);
            }
        }
        let decodable = attrs.iter().filter(|(id, b)| exact_len(*id) == Some(b.len()));
        prop_assert_eq!(points.len(), decodable.count());
    }

    #[test]
    fn in_range_readings_round_trip(t in -273.15f64..=327.67, h in 0.0f64..=100.0) {
        let (tv, hv, q) = round_trip(t, h);
        prop_assert_eq!(q, vec![Quality::Good; 2]);
        prop_assert!((tv - t).abs() <= 0.005 + 1e-9, "{t} read as {tv}");
        prop_assert!((hv - h).abs() <= 0.005 + 1e-9, "{h} read as {hv}");
    }

    #[test]
    fn out_of_range_readings_are_not_known(
        t in prop_oneof![-1e9f64..-273.16, 327.68f64..1e9, Just(f64::NAN), Just(f64::INFINITY)],
        h in prop_oneof![-1e9f64..-0.01, 100.01f64..1e9, Just(f64::NAN), Just(f64::NEG_INFINITY)],
    ) {
        let (tv, hv, q) = round_trip(t, h);
        prop_assert_eq!(q, vec![Quality::Bad; 2]);
        prop_assert!(tv.is_nan() && hv.is_nan());
    }
}
