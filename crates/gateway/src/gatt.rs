//! A BLE/GATT-like sensor device and its adapter: attribute handles,
//! 16-bit characteristic UUIDs, and the SIG fixed-point value formats
//! (§III-A: "Bluetooth Low Energy ... standardizing communication up to
//! the application layer").

use crate::model::{Adapter, Measurement, PointInfo, Quality, Unit, WriteError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Well-known characteristic UUIDs (Bluetooth SIG assigned numbers).
pub mod uuid {
    /// Temperature (org.bluetooth.characteristic.temperature):
    /// `sint16`, hundredths of a degree Celsius, -273.15 to 327.67;
    /// [`TEMPERATURE_UNKNOWN`](super::TEMPERATURE_UNKNOWN) when the
    /// value is not known.
    pub const TEMPERATURE: u16 = 0x2A6E;
    /// Humidity: `uint16`, hundredths of a percent, 0 to 100.00;
    /// [`HUMIDITY_UNKNOWN`](super::HUMIDITY_UNKNOWN) when the value is
    /// not known.
    pub const HUMIDITY: u16 = 0x2A6F;
    /// Battery level: `uint8`, percent.
    pub const BATTERY: u16 = 0x2A19;
}

/// The Temperature characteristic's "value is not known" (0x8000), per
/// the GATT Specification Supplement.
pub const TEMPERATURE_UNKNOWN: i16 = i16::MIN;
/// The Humidity characteristic's "value is not known" (0xFFFF), per the
/// GATT Specification Supplement.
pub const HUMIDITY_UNKNOWN: u16 = u16::MAX;

/// A simulated GATT server: handle -> (uuid, value bytes).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GattDevice {
    attributes: BTreeMap<u16, (u16, Vec<u8>)>,
}

/// ATT-style errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttError {
    /// No attribute at that handle.
    InvalidHandle,
    /// Value has the wrong length for the characteristic.
    InvalidLength,
}

impl GattDevice {
    /// An empty attribute table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a characteristic at `handle`.
    pub fn add_characteristic(&mut self, handle: u16, uuid: u16, value: Vec<u8>) {
        self.attributes.insert(handle, (uuid, value));
    }

    /// ATT read-by-handle.
    ///
    /// # Errors
    ///
    /// [`AttError::InvalidHandle`] for unknown handles.
    pub fn read(&self, handle: u16) -> Result<&[u8], AttError> {
        self.attributes
            .get(&handle)
            .map(|(_, v)| v.as_slice())
            .ok_or(AttError::InvalidHandle)
    }

    /// ATT write-by-handle (length must match).
    ///
    /// # Errors
    ///
    /// See [`AttError`].
    pub fn write(&mut self, handle: u16, value: &[u8]) -> Result<(), AttError> {
        let (_, v) = self
            .attributes
            .get_mut(&handle)
            .ok_or(AttError::InvalidHandle)?;
        if v.len() != value.len() {
            return Err(AttError::InvalidLength);
        }
        v.copy_from_slice(value);
        Ok(())
    }

    /// Discovery: all `(handle, uuid)` pairs.
    pub fn discover(&self) -> Vec<(u16, u16)> {
        self.attributes.iter().map(|(&h, &(u, _))| (h, u)).collect()
    }

    /// Plant-simulation helper: sets a temperature characteristic from
    /// degrees Celsius. A reading the characteristic cannot carry — not
    /// finite, or outside -273.15 to 327.67 — is written as
    /// [`TEMPERATURE_UNKNOWN`], never as a clamped or zeroed value.
    pub fn set_temperature(&mut self, handle: u16, celsius: f64) {
        let hundredths = (celsius * 100.0).round();
        let raw = if (-27_315.0..=32_767.0).contains(&hundredths) {
            hundredths as i16
        } else {
            TEMPERATURE_UNKNOWN
        };
        let _ = self.write(handle, &raw.to_le_bytes());
    }

    /// Plant-simulation helper: sets a humidity characteristic from
    /// percent. A reading outside 0 to 100.00 or not finite is written
    /// as [`HUMIDITY_UNKNOWN`].
    pub fn set_humidity(&mut self, handle: u16, percent: f64) {
        let hundredths = (percent * 100.0).round();
        let raw = if (0.0..=10_000.0).contains(&hundredths) {
            hundredths as u16
        } else {
            HUMIDITY_UNKNOWN
        };
        let _ = self.write(handle, &raw.to_le_bytes());
    }
}

/// Maps one characteristic to a normalized point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CharMap {
    /// Attribute handle.
    pub handle: u16,
    /// Point name.
    pub point: String,
}

/// Adapter translating a [`GattDevice`] into normalized measurements,
/// decoding the SIG value formats by UUID.
pub struct GattAdapter {
    id: String,
    device: GattDevice,
    map: Vec<CharMap>,
}

impl GattAdapter {
    /// Wraps `device` under the gateway-visible `id`.
    pub fn new(id: impl Into<String>, device: GattDevice, map: Vec<CharMap>) -> Self {
        GattAdapter {
            id: id.into(),
            device,
            map,
        }
    }

    /// Plant-simulation access to the wrapped device.
    pub fn device_mut(&mut self) -> &mut GattDevice {
        &mut self.device
    }

    /// The unit of a characteristic this adapter understands, and its
    /// value unless the device reports it as not known. `None` for an
    /// unknown UUID or a value of the wrong length.
    fn decode(uuid: u16, bytes: &[u8]) -> Option<(Unit, Option<f64>)> {
        match (uuid, bytes) {
            (uuid::TEMPERATURE, &[a, b]) => {
                let raw = i16::from_le_bytes([a, b]);
                let known = raw != TEMPERATURE_UNKNOWN;
                Some((Unit::Celsius, known.then(|| f64::from(raw) / 100.0)))
            }
            (uuid::HUMIDITY, &[a, b]) => {
                let raw = u16::from_le_bytes([a, b]);
                let known = raw != HUMIDITY_UNKNOWN;
                Some((Unit::Percent, known.then(|| f64::from(raw) / 100.0)))
            }
            (uuid::BATTERY, &[level]) => Some((Unit::Percent, Some(f64::from(level)))),
            _ => None,
        }
    }
}

impl Adapter for GattAdapter {
    fn device(&self) -> &str {
        &self.id
    }

    fn protocol(&self) -> &'static str {
        "ble-gatt"
    }

    fn points(&self) -> Vec<PointInfo> {
        self.map
            .iter()
            .filter_map(|m| {
                let &(uuid, ref v) = self.device.attributes.get(&m.handle)?;
                let (unit, _) = Self::decode(uuid, v)?;
                Some(PointInfo {
                    point: m.point.clone(),
                    unit,
                    writable: false, // GATT sensors here are read-only
                })
            })
            .collect()
    }

    fn poll(&mut self, now_us: u64) -> Vec<Measurement> {
        let mut out = Vec::new();
        for m in &self.map {
            let Some(&(uuid, ref bytes)) = self.device.attributes.get(&m.handle) else {
                continue;
            };
            // Undecodable, or decoded as "not known": a Bad NaN.
            let (unit, value) = Self::decode(uuid, bytes).unwrap_or((Unit::Raw, None));
            out.push(Measurement {
                point: m.point.clone(),
                value: value.unwrap_or(f64::NAN),
                unit,
                quality: if value.is_some() {
                    Quality::Good
                } else {
                    Quality::Bad
                },
                timestamp_us: now_us,
                device: self.id.clone(),
            });
        }
        out
    }

    fn write(&mut self, point: &str, _value: f64) -> Result<(), WriteError> {
        if self.map.iter().any(|m| m.point == point) {
            Err(WriteError::ReadOnly)
        } else {
            Err(WriteError::NoSuchPoint)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> GattDevice {
        let mut d = GattDevice::new();
        d.add_characteristic(0x0010, uuid::TEMPERATURE, vec![0, 0]);
        d.add_characteristic(0x0012, uuid::HUMIDITY, vec![0, 0]);
        d.add_characteristic(0x0014, uuid::BATTERY, vec![100]);
        d
    }

    #[test]
    fn att_read_write() {
        let mut d = device();
        assert_eq!(d.read(0x0014), Ok(&[100u8][..]));
        assert_eq!(d.read(0x9999), Err(AttError::InvalidHandle));
        assert_eq!(d.write(0x0014, &[50]), Ok(()));
        assert_eq!(d.write(0x0014, &[1, 2]), Err(AttError::InvalidLength));
        assert_eq!(d.discover().len(), 3);
    }

    #[test]
    fn sig_formats_decode() {
        let mut d = device();
        d.set_temperature(0x0010, -7.25);
        d.set_humidity(0x0012, 56.78);
        let mut a = GattAdapter::new(
            "tag-1",
            d,
            vec![
                CharMap {
                    handle: 0x0010,
                    point: "room/temp".into(),
                },
                CharMap {
                    handle: 0x0012,
                    point: "room/hum".into(),
                },
                CharMap {
                    handle: 0x0014,
                    point: "room/batt".into(),
                },
            ],
        );
        let ms = a.poll(5);
        assert_eq!(ms.len(), 3);
        assert!((ms[0].value + 7.25).abs() < 1e-9);
        assert_eq!(ms[0].unit, Unit::Celsius);
        assert!((ms[1].value - 56.78).abs() < 1e-9);
        assert_eq!(ms[1].unit, Unit::Percent);
        assert_eq!(ms[2].value, 100.0);
        assert!(ms.iter().all(|m| m.quality == Quality::Good));
    }

    #[test]
    fn readings_the_characteristic_cannot_carry_are_not_known() {
        let mut d = device();
        let map = vec![
            CharMap {
                handle: 0x0010,
                point: "t".into(),
            },
            CharMap {
                handle: 0x0012,
                point: "h".into(),
            },
        ];
        let mut a = GattAdapter::new("tag-5", d.clone(), map.clone());
        assert_eq!(a.points().len(), 2, "an unknown value keeps its point");
        for (t, h) in [(f64::NAN, f64::NAN), (400.0, 100.01), (-300.0, -1.0)] {
            d.set_temperature(0x0010, t);
            d.set_humidity(0x0012, h);
            assert_eq!(d.read(0x0010), Ok(&[0x00, 0x80][..]), "{t}");
            assert_eq!(d.read(0x0012), Ok(&[0xFF, 0xFF][..]), "{h}");
            a = GattAdapter::new("tag-5", d.clone(), map.clone());
            let ms = a.poll(0);
            assert!(ms
                .iter()
                .all(|m| m.quality == Quality::Bad && m.value.is_nan()));
            assert_eq!((ms[0].unit, ms[1].unit), (Unit::Celsius, Unit::Percent));
        }
        // The ends of each range are readings, not sentinels.
        d.set_temperature(0x0010, -273.15);
        d.set_humidity(0x0012, 100.0);
        let ms = GattAdapter::new("tag-5", d.clone(), map.clone()).poll(0);
        assert_eq!((ms[0].value, ms[1].value), (-273.15, 100.0));
        d.set_temperature(0x0010, 327.67);
        d.set_humidity(0x0012, 0.0);
        let ms = GattAdapter::new("tag-5", d, map).poll(0);
        assert_eq!((ms[0].value, ms[1].value), (327.67, 0.0));
        assert!(ms.iter().all(|m| m.quality == Quality::Good));
    }

    #[test]
    fn unknown_uuid_flagged_bad() {
        let mut d = GattDevice::new();
        d.add_characteristic(0x0020, 0x1234, vec![1, 2, 3]);
        let mut a = GattAdapter::new(
            "tag-2",
            d,
            vec![CharMap {
                handle: 0x0020,
                point: "x".into(),
            }],
        );
        let ms = a.poll(0);
        assert_eq!(ms[0].quality, Quality::Bad);
        assert!(ms[0].value.is_nan());
    }

    #[test]
    fn writes_rejected() {
        let mut a = GattAdapter::new(
            "tag-3",
            device(),
            vec![CharMap {
                handle: 0x0010,
                point: "t".into(),
            }],
        );
        assert_eq!(a.write("t", 1.0), Err(WriteError::ReadOnly));
        assert_eq!(a.write("zzz", 1.0), Err(WriteError::NoSuchPoint));
    }

    #[test]
    fn points_report_units() {
        let a = GattAdapter::new(
            "tag-4",
            device(),
            vec![
                CharMap {
                    handle: 0x0010,
                    point: "t".into(),
                },
                CharMap {
                    handle: 0x0014,
                    point: "b".into(),
                },
            ],
        );
        let pts = a.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].unit, Unit::Celsius);
        assert_eq!(pts[1].unit, Unit::Percent);
        assert!(pts.iter().all(|p| !p.writable));
    }
}
