//! The normalized data model every southbound protocol is translated
//! into: the "illusion of a single coherent system" (§II-A) at the data
//! level.

/// Engineering unit of a measurement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unit {
    /// Degrees Celsius.
    Celsius,
    /// Relative humidity, percent.
    Percent,
    /// Pascal.
    Pascal,
    /// Revolutions per minute.
    Rpm,
    /// Millivolts.
    Millivolt,
    /// Boolean state (0/1).
    Bool,
    /// Dimensionless / unknown.
    Raw,
}

/// Quality flag in the OPC tradition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quality {
    /// Trustworthy value.
    Good,
    /// Stale or extrapolated.
    Uncertain,
    /// Known-bad (sensor fault, decode error).
    Bad,
}

/// One normalized measurement flowing through the gateway.
#[derive(Clone, PartialEq, Debug)]
pub struct Measurement {
    /// Hierarchical point name, e.g. `plant/line1/boiler/temp`.
    pub point: String,
    /// The value in engineering units.
    pub value: f64,
    /// Unit of `value`.
    pub unit: Unit,
    /// Quality flag.
    pub quality: Quality,
    /// Acquisition time, microseconds since epoch (simulation time).
    pub timestamp_us: u64,
    /// The device the value came from.
    pub device: String,
}

/// Static description of one point a device exposes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PointInfo {
    /// Point name (relative to the device).
    pub point: String,
    /// Unit of the point.
    pub unit: Unit,
    /// Whether the point accepts writes (an actuator).
    pub writable: bool,
}

/// Static description of a southbound device.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeviceInfo {
    /// Device identifier.
    pub device: String,
    /// Southbound protocol name.
    pub protocol: &'static str,
    /// Points the device exposes.
    pub points: Vec<PointInfo>,
}

/// Errors from adapter writes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteError {
    /// The point does not exist on this device.
    NoSuchPoint,
    /// The point is read-only.
    ReadOnly,
    /// The device rejected or failed the write.
    DeviceError,
}

impl core::fmt::Display for WriteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WriteError::NoSuchPoint => write!(f, "no such point"),
            WriteError::ReadOnly => write!(f, "point is read-only"),
            WriteError::DeviceError => write!(f, "device failed the write"),
        }
    }
}

impl std::error::Error for WriteError {}

/// A southbound protocol adapter: translates one device's native
/// protocol into the normalized model.
pub trait Adapter {
    /// The device identifier.
    fn device(&self) -> &str;

    /// The protocol name (for inventories and diagnostics).
    fn protocol(&self) -> &'static str;

    /// The points this device exposes.
    fn points(&self) -> Vec<PointInfo>;

    /// Polls the device, returning fresh measurements.
    fn poll(&mut self, now_us: u64) -> Vec<Measurement>;

    /// Writes an actuation value to a point.
    ///
    /// # Errors
    ///
    /// See [`WriteError`].
    fn write(&mut self, point: &str, value: f64) -> Result<(), WriteError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_types_serialize() {
        let m = Measurement {
            point: "a/b".into(),
            value: 21.5,
            unit: Unit::Celsius,
            quality: Quality::Good,
            timestamp_us: 123,
            device: "dev-1".into(),
        };
        // Measurements are plain values: a clone compares equal.
        let copy = m.clone();
        assert_eq!(m, copy);
        assert_eq!(WriteError::ReadOnly.to_string(), "point is read-only");
    }
}
