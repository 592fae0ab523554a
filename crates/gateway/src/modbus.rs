//! A Modbus-RTU-like legacy fieldbus device and its adapter — the
//! "older standards dedicated for industrial applications that do not
//! perfectly fit the Internet protocol stack" (§III-A, citing Drury's
//! drives handbook).
//!
//! The simulated device speaks real RTU framing: `| addr | function |
//! data... | crc16 |`, function 0x03 (read holding registers) and 0x06
//! (write single register), with the standard CRC-16/MODBUS.

use crate::model::{Adapter, Measurement, PointInfo, Quality, Unit, WriteError};

/// CRC-16/MODBUS (poly 0xA001 reflected, init 0xFFFF).
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= b as u16;
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0xA001;
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

/// Builds an RTU frame: payload + little-endian CRC.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = payload.to_vec();
    let crc = crc16(payload);
    out.push((crc & 0xFF) as u8);
    out.push((crc >> 8) as u8);
    out
}

/// Verifies and strips the CRC of an RTU frame.
pub fn unframe(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < 3 {
        return None;
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 2);
    let got = crc_bytes[0] as u16 | (crc_bytes[1] as u16) << 8;
    if crc16(payload) == got {
        Some(payload)
    } else {
        None
    }
}

/// Modbus exception codes used by the simulated device.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModbusError {
    /// Unknown function code (exception 0x01).
    IllegalFunction,
    /// Register address out of range (exception 0x02).
    IllegalAddress,
    /// Frame malformed or CRC mismatch.
    BadFrame,
    /// Response addressed to someone else.
    WrongStation,
}

/// A simulated legacy device holding a register bank.
#[derive(Clone, Debug)]
pub struct ModbusDevice {
    /// RTU station address.
    pub station: u8,
    registers: Vec<u16>,
}

impl ModbusDevice {
    /// A device with `n` holding registers, all zero.
    pub fn new(station: u8, n: usize) -> Self {
        ModbusDevice {
            station,
            registers: vec![0; n],
        }
    }

    /// Direct register access for test/plant simulation.
    pub fn set_register(&mut self, addr: u16, value: u16) {
        if let Some(r) = self.registers.get_mut(addr as usize) {
            *r = value;
        }
    }

    /// Direct register read.
    pub fn register(&self, addr: u16) -> Option<u16> {
        self.registers.get(addr as usize).copied()
    }

    /// Processes one RTU request frame, producing the response frame
    /// (or `None` for requests addressed to another station — RTU
    /// devices stay silent then).
    pub fn handle(&mut self, request: &[u8]) -> Option<Vec<u8>> {
        let payload = unframe(request)?;
        if payload.len() < 2 || payload[0] != self.station {
            return None;
        }
        let func = payload[1];
        let resp = match func {
            0x03 if payload.len() == 6 => {
                let addr = u16::from_be_bytes([payload[2], payload[3]]);
                let count = u16::from_be_bytes([payload[4], payload[5]]);
                let end = addr as usize + count as usize;
                if count == 0 || end > self.registers.len() {
                    vec![self.station, func | 0x80, 0x02]
                } else {
                    let mut r = vec![self.station, func, (count * 2) as u8];
                    for v in &self.registers[addr as usize..end] {
                        r.extend_from_slice(&v.to_be_bytes());
                    }
                    r
                }
            }
            0x06 if payload.len() == 6 => {
                let addr = u16::from_be_bytes([payload[2], payload[3]]);
                let value = u16::from_be_bytes([payload[4], payload[5]]);
                if (addr as usize) < self.registers.len() {
                    self.registers[addr as usize] = value;
                    payload.to_vec() // echo per spec
                } else {
                    vec![self.station, func | 0x80, 0x02]
                }
            }
            _ => vec![self.station, func | 0x80, 0x01],
        };
        Some(frame(&resp))
    }
}

/// Client-side helpers: build requests, parse responses.
pub mod client {
    use super::*;

    /// Read `count` holding registers from `addr`.
    pub fn read_holding_req(station: u8, addr: u16, count: u16) -> Vec<u8> {
        let mut p = vec![station, 0x03];
        p.extend_from_slice(&addr.to_be_bytes());
        p.extend_from_slice(&count.to_be_bytes());
        frame(&p)
    }

    /// Write a single holding register.
    pub fn write_single_req(station: u8, addr: u16, value: u16) -> Vec<u8> {
        let mut p = vec![station, 0x06];
        p.extend_from_slice(&addr.to_be_bytes());
        p.extend_from_slice(&value.to_be_bytes());
        frame(&p)
    }

    /// Parses a read response into register values.
    ///
    /// # Errors
    ///
    /// See [`ModbusError`].
    pub fn parse_read_resp(station: u8, resp: &[u8]) -> Result<Vec<u16>, ModbusError> {
        let payload = unframe(resp).ok_or(ModbusError::BadFrame)?;
        if payload.len() < 2 {
            return Err(ModbusError::BadFrame);
        }
        if payload[0] != station {
            return Err(ModbusError::WrongStation);
        }
        if payload[1] == 0x83 {
            return Err(match payload.get(2) {
                Some(0x02) => ModbusError::IllegalAddress,
                _ => ModbusError::IllegalFunction,
            });
        }
        if payload[1] != 0x03 || payload.len() < 3 {
            return Err(ModbusError::BadFrame);
        }
        let n = payload[2] as usize;
        if payload.len() != 3 + n || !n.is_multiple_of(2) {
            return Err(ModbusError::BadFrame);
        }
        Ok(payload[3..]
            .chunks(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect())
    }
}

/// How one register maps to a normalized point.
#[derive(Clone, Debug)]
pub struct RegisterMap {
    /// Register address.
    pub addr: u16,
    /// Point name.
    pub point: String,
    /// Engineering unit after scaling.
    pub unit: Unit,
    /// `value = raw as i16 * scale + offset` (registers are treated as
    /// signed, the common fieldbus convention).
    pub scale: f64,
    /// Additive offset after scaling.
    pub offset: f64,
    /// Whether writes are allowed.
    pub writable: bool,
}

/// Adapter translating a [`ModbusDevice`] into normalized measurements
/// by polling its register map over RTU frames.
pub struct ModbusAdapter {
    id: String,
    device: ModbusDevice,
    map: Vec<RegisterMap>,
}

impl ModbusAdapter {
    /// Wraps `device` under the gateway-visible `id` with a register map.
    pub fn new(id: impl Into<String>, device: ModbusDevice, map: Vec<RegisterMap>) -> Self {
        ModbusAdapter {
            id: id.into(),
            device,
            map,
        }
    }

    /// Plant-simulation access to the wrapped device.
    pub fn device_mut(&mut self) -> &mut ModbusDevice {
        &mut self.device
    }
}

impl Adapter for ModbusAdapter {
    fn device(&self) -> &str {
        &self.id
    }

    fn protocol(&self) -> &'static str {
        "modbus-rtu"
    }

    fn points(&self) -> Vec<PointInfo> {
        self.map
            .iter()
            .map(|m| PointInfo {
                point: m.point.clone(),
                unit: m.unit,
                writable: m.writable,
            })
            .collect()
    }

    fn poll(&mut self, now_us: u64) -> Vec<Measurement> {
        let mut out = Vec::new();
        for m in &self.map {
            let req = client::read_holding_req(self.device.station, m.addr, 1);
            let Some(resp) = self.device.handle(&req) else {
                continue;
            };
            match client::parse_read_resp(self.device.station, &resp) {
                Ok(regs) if regs.len() == 1 => out.push(Measurement {
                    point: m.point.clone(),
                    value: regs[0] as i16 as f64 * m.scale + m.offset,
                    unit: m.unit,
                    quality: Quality::Good,
                    timestamp_us: now_us,
                    device: self.id.clone(),
                }),
                _ => out.push(Measurement {
                    point: m.point.clone(),
                    value: f64::NAN,
                    unit: m.unit,
                    quality: Quality::Bad,
                    timestamp_us: now_us,
                    device: self.id.clone(),
                }),
            }
        }
        out
    }

    fn write(&mut self, point: &str, value: f64) -> Result<(), WriteError> {
        let m = self
            .map
            .iter()
            .find(|m| m.point == point)
            .ok_or(WriteError::NoSuchPoint)?;
        if !m.writable {
            return Err(WriteError::ReadOnly);
        }
        if m.scale == 0.0 {
            return Err(WriteError::DeviceError);
        }
        let raw = ((value - m.offset) / m.scale).round() as i64;
        let raw = i16::try_from(raw).map_err(|_| WriteError::DeviceError)? as u16;
        let req = client::write_single_req(self.device.station, m.addr, raw);
        let resp = self.device.handle(&req).ok_or(WriteError::DeviceError)?;
        let payload = unframe(&resp).ok_or(WriteError::DeviceError)?;
        if payload.get(1) == Some(&0x06) {
            Ok(())
        } else {
            Err(WriteError::DeviceError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc_known_vector() {
        // Classic reference frame: 01 03 00 00 00 01 84 0A
        // (CRC bytes on the wire: 0x84 0x0A, i.e. value 0x0A84).
        let crc = crc16(&[0x01, 0x03, 0x00, 0x00, 0x00, 0x01]);
        assert_eq!(crc, 0x0A84, "crc = {crc:#06x}");
        // Sanity: wire layout round-trips through frame/unframe.
        let f = frame(&[0x01, 0x03, 0x00, 0x00, 0x00, 0x01]);
        assert_eq!(unframe(&f), Some(&f[..6]));
    }

    #[test]
    fn corrupted_frame_rejected() {
        let mut f = frame(&[0x01, 0x03, 0x00, 0x00, 0x00, 0x01]);
        f[2] ^= 0xFF;
        assert_eq!(unframe(&f), None);
        assert_eq!(unframe(&[1, 2]), None);
    }

    #[test]
    fn device_read_write_cycle() {
        let mut dev = ModbusDevice::new(7, 16);
        dev.set_register(3, 215);
        let resp = dev
            .handle(&client::read_holding_req(7, 3, 2))
            .expect("addressed to us");
        assert_eq!(client::parse_read_resp(7, &resp), Ok(vec![215, 0]));

        let resp = dev
            .handle(&client::write_single_req(7, 4, 999))
            .expect("write echo");
        assert!(unframe(&resp).is_some());
        assert_eq!(dev.register(4), Some(999));
    }

    #[test]
    fn device_exceptions() {
        let mut dev = ModbusDevice::new(7, 4);
        // Out-of-range read -> IllegalAddress.
        let resp = dev
            .handle(&client::read_holding_req(7, 2, 10))
            .expect("resp");
        assert_eq!(
            client::parse_read_resp(7, &resp),
            Err(ModbusError::IllegalAddress)
        );
        // Unknown function -> exception frame.
        let resp = dev.handle(&frame(&[7, 0x55, 0, 0])).expect("resp");
        let p = unframe(&resp).expect("framed");
        assert_eq!(p[1], 0xD5, "function | 0x80");
        // Wrong station -> silence.
        assert_eq!(dev.handle(&client::read_holding_req(9, 0, 1)), None);
    }

    fn temp_map() -> Vec<RegisterMap> {
        vec![
            RegisterMap {
                addr: 0,
                point: "boiler/temp".into(),
                unit: Unit::Celsius,
                scale: 0.1, // tenths of a degree
                offset: 0.0,
                writable: false,
            },
            RegisterMap {
                addr: 1,
                point: "boiler/setpoint".into(),
                unit: Unit::Celsius,
                scale: 0.1,
                offset: 0.0,
                writable: true,
            },
        ]
    }

    #[test]
    fn adapter_normalizes_with_scaling() {
        let mut dev = ModbusDevice::new(1, 8);
        dev.set_register(0, 215); // 21.5 C in tenths
        let mut a = ModbusAdapter::new("plc-1", dev, temp_map());
        let ms = a.poll(1000);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].point, "boiler/temp");
        assert!((ms[0].value - 21.5).abs() < 1e-9);
        assert_eq!(ms[0].unit, Unit::Celsius);
        assert_eq!(ms[0].quality, Quality::Good);
        assert_eq!(ms[0].device, "plc-1");
    }

    #[test]
    fn adapter_negative_values() {
        let mut dev = ModbusDevice::new(1, 8);
        dev.set_register(0, (-125i16) as u16); // -12.5 C
        let mut a = ModbusAdapter::new("plc-1", dev, temp_map());
        let ms = a.poll(0);
        assert!((ms[0].value + 12.5).abs() < 1e-9);
    }

    #[test]
    fn adapter_write_path() {
        let dev = ModbusDevice::new(1, 8);
        let mut a = ModbusAdapter::new("plc-1", dev, temp_map());
        a.write("boiler/setpoint", 22.5).expect("writable");
        assert_eq!(a.device_mut().register(1), Some(225));
        assert_eq!(a.write("boiler/temp", 1.0), Err(WriteError::ReadOnly));
        assert_eq!(a.write("nope", 1.0), Err(WriteError::NoSuchPoint));
    }

    proptest! {
        #[test]
        fn crc_detects_single_bit_flips(data in proptest::collection::vec(any::<u8>(), 4..32),
                                        bit in 0usize..32) {
            let f = frame(&data);
            let mut corrupted = f.clone();
            let idx = bit % (corrupted.len() * 8);
            corrupted[idx / 8] ^= 1 << (idx % 8);
            prop_assert_eq!(unframe(&corrupted), None);
        }

        #[test]
        fn register_scaling_round_trips(raw in -20000i16..20000) {
            let mut dev = ModbusDevice::new(1, 4);
            dev.set_register(1, raw as u16);
            let mut a = ModbusAdapter::new("x", dev, temp_map());
            // Write back the polled value: should land on the same raw.
            let v = a.poll(0)[1].value;
            a.write("boiler/setpoint", v).expect("ok");
            prop_assert_eq!(a.device_mut().register(1), Some(raw as u16));
        }
    }
}
