//! A raw 802.15.4-class sensor speaking type-length-value report
//! frames, optionally protected with [`iiot_security`] frame security —
//! the "dedicated IoT-oriented device" class of §III, heterogeneous
//! even against the other IoT devices.
//!
//! Report frame: a sequence of `| type (1) | len (1) | value (len) |`
//! items. When security is enabled, the whole report is wrapped with
//! [`iiot_security::protect`] at the configured level.

use crate::model::{Adapter, Measurement, PointInfo, Quality, Unit, WriteError};
use iiot_security::{protect, unprotect, Key, ReplayGuard, SecLevel};

/// TLV types emitted by the sensor.
pub mod tlv_type {
    /// Temperature: `i16` big-endian, tenths of a degree C.
    pub const TEMP: u8 = 0x01;
    /// Humidity: `u8`, percent.
    pub const HUMIDITY: u8 = 0x02;
    /// Battery: `u16` big-endian, millivolts.
    pub const BATTERY: u8 = 0x03;
}

/// Encodes TLV items into a report body.
pub fn encode_tlv(items: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (t, v) in items {
        debug_assert!(v.len() <= 255);
        out.push(*t);
        out.push(v.len() as u8);
        out.extend_from_slice(v);
    }
    out
}

/// Decodes a report body into TLV items; `None` on malformed input.
pub fn decode_tlv(mut bytes: &[u8]) -> Option<Vec<(u8, Vec<u8>)>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 2 {
            return None;
        }
        let (t, l) = (bytes[0], bytes[1] as usize);
        if bytes.len() < 2 + l {
            return None;
        }
        out.push((t, bytes[2..2 + l].to_vec()));
        bytes = &bytes[2 + l..];
    }
    Some(out)
}

/// The simulated sensor: holds current readings and emits (optionally
/// secured) report frames.
#[derive(Clone, Debug)]
pub struct TlvSensor {
    /// Source address used in the security header.
    pub addr: u32,
    temp_c: f64,
    humidity_pct: f64,
    battery_mv: u16,
    security: Option<(Key, SecLevel)>,
    counter: u32,
}

impl TlvSensor {
    /// A sensor with nominal readings and no security.
    pub fn new(addr: u32) -> Self {
        TlvSensor {
            addr,
            temp_c: 20.0,
            humidity_pct: 50.0,
            battery_mv: 3000,
            security: None,
            counter: 0,
        }
    }

    /// Enables frame security at `level` under `key`.
    pub fn secure(mut self, key: Key, level: SecLevel) -> Self {
        self.security = Some((key, level));
        self
    }

    /// Plant-simulation setters.
    pub fn set_readings(&mut self, temp_c: f64, humidity_pct: f64, battery_mv: u16) {
        self.temp_c = temp_c;
        self.humidity_pct = humidity_pct;
        self.battery_mv = battery_mv;
    }

    /// Emits one report frame.
    pub fn report(&mut self) -> Vec<u8> {
        let body = encode_tlv(&[
            (
                tlv_type::TEMP,
                ((self.temp_c * 10.0).round() as i16).to_be_bytes().to_vec(),
            ),
            (
                tlv_type::HUMIDITY,
                vec![self.humidity_pct.round().clamp(0.0, 100.0) as u8],
            ),
            (tlv_type::BATTERY, self.battery_mv.to_be_bytes().to_vec()),
        ]);
        match &self.security {
            Some((key, level)) => {
                self.counter += 1;
                protect(key, *level, self.addr, self.counter, &body)
            }
            None => body,
        }
    }
}

/// Adapter translating [`TlvSensor`] reports into normalized
/// measurements, verifying frame security when configured.
pub struct TlvAdapter {
    id: String,
    sensor: TlvSensor,
    prefix: String,
    security: Option<(Key, SecLevel)>,
    replay: ReplayGuard,
}

impl TlvAdapter {
    /// Wraps `sensor`; points are named `<prefix>/temp` etc.
    pub fn new(id: impl Into<String>, sensor: TlvSensor, prefix: impl Into<String>) -> Self {
        let security = sensor.security;
        TlvAdapter {
            id: id.into(),
            sensor,
            prefix: prefix.into(),
            security,
            replay: ReplayGuard::new(),
        }
    }

    fn bad(&self, point: &str, now_us: u64) -> Measurement {
        Measurement {
            point: format!("{}/{}", self.prefix, point),
            value: f64::NAN,
            unit: Unit::Raw,
            quality: Quality::Bad,
            timestamp_us: now_us,
            device: self.id.clone(),
        }
    }
}

impl Adapter for TlvAdapter {
    fn device(&self) -> &str {
        &self.id
    }

    fn protocol(&self) -> &'static str {
        "154-tlv"
    }

    fn points(&self) -> Vec<PointInfo> {
        [
            ("temp", Unit::Celsius),
            ("hum", Unit::Percent),
            ("batt", Unit::Millivolt),
        ]
        .into_iter()
        .map(|(p, unit)| PointInfo {
            point: format!("{}/{p}", self.prefix),
            unit,
            writable: false,
        })
        .collect()
    }

    fn poll(&mut self, now_us: u64) -> Vec<Measurement> {
        let frame = self.sensor.report();
        let body = match &self.security {
            Some((key, level)) => {
                match unprotect(key, *level, self.sensor.addr, &frame, &mut self.replay) {
                    Ok(b) => b,
                    Err(_) => return vec![self.bad("temp", now_us)],
                }
            }
            None => frame,
        };
        let Some(items) = decode_tlv(&body) else {
            return vec![self.bad("temp", now_us)];
        };
        let mut out = Vec::new();
        for (t, v) in items {
            let m = match (t, v.as_slice()) {
                (tlv_type::TEMP, [a, b]) => Some((
                    "temp",
                    i16::from_be_bytes([*a, *b]) as f64 / 10.0,
                    Unit::Celsius,
                )),
                (tlv_type::HUMIDITY, [p]) => Some(("hum", *p as f64, Unit::Percent)),
                (tlv_type::BATTERY, [a, b]) => {
                    Some(("batt", u16::from_be_bytes([*a, *b]) as f64, Unit::Millivolt))
                }
                _ => None,
            };
            if let Some((name, value, unit)) = m {
                out.push(Measurement {
                    point: format!("{}/{name}", self.prefix),
                    value,
                    unit,
                    quality: Quality::Good,
                    timestamp_us: now_us,
                    device: self.id.clone(),
                });
            }
        }
        out
    }

    fn write(&mut self, point: &str, _value: f64) -> Result<(), WriteError> {
        if self.points().iter().any(|p| p.point == point) {
            Err(WriteError::ReadOnly)
        } else {
            Err(WriteError::NoSuchPoint)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tlv_codec_round_trip() {
        let items = vec![(1u8, vec![1, 2]), (9, vec![]), (3, vec![7; 40])];
        assert_eq!(decode_tlv(&encode_tlv(&items)), Some(items));
        assert_eq!(decode_tlv(&[1]), None, "truncated header");
        assert_eq!(decode_tlv(&[1, 5, 0]), None, "truncated value");
        assert_eq!(decode_tlv(&[]), Some(vec![]));
    }

    #[test]
    fn plain_sensor_normalizes() {
        let mut s = TlvSensor::new(10);
        s.set_readings(-3.5, 61.0, 2870);
        let mut a = TlvAdapter::new("mote-1", s, "yard/m1");
        let ms = a.poll(9);
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].point, "yard/m1/temp");
        assert!((ms[0].value + 3.5).abs() < 1e-9);
        assert_eq!(ms[1].value, 61.0);
        assert_eq!(ms[2].value, 2870.0);
        assert_eq!(ms[2].unit, Unit::Millivolt);
    }

    #[test]
    fn secured_sensor_round_trips() {
        let key = Key(*b"yard-network-key");
        let s = TlvSensor::new(11).secure(key, SecLevel::EncMic64);
        let mut a = TlvAdapter::new("mote-2", s, "yard/m2");
        let ms = a.poll(1);
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.quality == Quality::Good));
        // Polling again works (counter increments, replay guard happy).
        let ms2 = a.poll(2);
        assert_eq!(ms2.len(), 3);
    }

    #[test]
    fn key_mismatch_yields_bad_quality() {
        let s = TlvSensor::new(12).secure(Key(*b"sensor-side-key!"), SecLevel::EncMic64);
        let mut a = TlvAdapter::new("mote-3", s, "yard/m3");
        // Gateway configured with a different key.
        a.security = Some((Key(*b"gateway-side-key"), SecLevel::EncMic64));
        let ms = a.poll(1);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].quality, Quality::Bad);
    }

    proptest! {
        #[test]
        fn tlv_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_tlv(&bytes);
        }

        #[test]
        fn readings_survive_normalization(temp in -400i32..850, hum in 0u8..=100, batt in 1800u16..3600) {
            let mut s = TlvSensor::new(1);
            let t = temp as f64 / 10.0;
            s.set_readings(t, hum as f64, batt);
            let mut a = TlvAdapter::new("m", s, "p");
            let ms = a.poll(0);
            prop_assert!((ms[0].value - t).abs() < 0.051);
            prop_assert_eq!(ms[1].value, hum as f64);
            prop_assert_eq!(ms[2].value, batt as f64);
        }
    }
}
