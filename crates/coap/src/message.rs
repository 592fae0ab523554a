//! Byte-level CoAP message codec (RFC 7252 §3).
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |Ver| T |  TKL  |      Code     |          Message ID           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |   Token (if any, TKL bytes) ...                               |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |   Options (if any) ...        |1 1 1 1 1 1 1 1|    Payload    |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```

/// CoAP protocol version (always 1).
pub const VERSION: u8 = 1;

/// Message type (RFC 7252 §4.2/§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgType {
    /// Confirmable: retransmitted until acknowledged.
    Confirmable,
    /// Non-confirmable: fire and forget.
    NonConfirmable,
    /// Acknowledgement of a confirmable message.
    Ack,
    /// Reset: "I received this but cannot process it".
    Reset,
}

impl MsgType {
    fn to_bits(self) -> u8 {
        match self {
            MsgType::Confirmable => 0,
            MsgType::NonConfirmable => 1,
            MsgType::Ack => 2,
            MsgType::Reset => 3,
        }
    }

    fn from_bits(b: u8) -> MsgType {
        match b & 0b11 {
            0 => MsgType::Confirmable,
            1 => MsgType::NonConfirmable,
            2 => MsgType::Ack,
            _ => MsgType::Reset,
        }
    }
}

/// Message code: `class.detail` (RFC 7252 §12.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Code {
    /// 0.00 — empty message (ping / pure ACK / RST).
    Empty,
    /// 0.01 GET.
    Get,
    /// 0.02 POST.
    Post,
    /// 0.03 PUT.
    Put,
    /// 0.04 DELETE.
    Delete,
    /// 2.01 Created.
    Created,
    /// 2.02 Deleted.
    Deleted,
    /// 2.03 Valid.
    Valid,
    /// 2.04 Changed.
    Changed,
    /// 2.05 Content.
    Content,
    /// 4.00 Bad Request.
    BadRequest,
    /// 4.01 Unauthorized.
    Unauthorized,
    /// 4.04 Not Found.
    NotFound,
    /// 4.05 Method Not Allowed.
    MethodNotAllowed,
    /// 4.08 Request Entity Incomplete.
    RequestEntityIncomplete,
    /// 4.13 Request Entity Too Large.
    RequestEntityTooLarge,
    /// 5.00 Internal Server Error.
    InternalServerError,
    /// 5.03 Service Unavailable.
    ServiceUnavailable,
    /// Any other code, kept verbatim.
    Other(u8),
}

impl Code {
    /// Encodes as the `class.detail` byte.
    pub fn to_byte(self) -> u8 {
        match self {
            Code::Empty => 0x00,
            Code::Get => 0x01,
            Code::Post => 0x02,
            Code::Put => 0x03,
            Code::Delete => 0x04,
            Code::Created => 0x41,
            Code::Deleted => 0x42,
            Code::Valid => 0x43,
            Code::Changed => 0x44,
            Code::Content => 0x45,
            Code::BadRequest => 0x80,
            Code::Unauthorized => 0x81,
            Code::NotFound => 0x84,
            Code::MethodNotAllowed => 0x85,
            Code::RequestEntityIncomplete => 0x88,
            Code::RequestEntityTooLarge => 0x8D,
            Code::InternalServerError => 0xA0,
            Code::ServiceUnavailable => 0xA3,
            Code::Other(b) => b,
        }
    }

    /// Decodes from the `class.detail` byte.
    pub fn from_byte(b: u8) -> Code {
        match b {
            0x00 => Code::Empty,
            0x01 => Code::Get,
            0x02 => Code::Post,
            0x03 => Code::Put,
            0x04 => Code::Delete,
            0x41 => Code::Created,
            0x42 => Code::Deleted,
            0x43 => Code::Valid,
            0x44 => Code::Changed,
            0x45 => Code::Content,
            0x80 => Code::BadRequest,
            0x81 => Code::Unauthorized,
            0x84 => Code::NotFound,
            0x85 => Code::MethodNotAllowed,
            0x88 => Code::RequestEntityIncomplete,
            0x8D => Code::RequestEntityTooLarge,
            0xA0 => Code::InternalServerError,
            0xA3 => Code::ServiceUnavailable,
            other => Code::Other(other),
        }
    }

    /// Whether this is a request method code (class 0, nonzero detail).
    pub fn is_request(self) -> bool {
        let b = self.to_byte();
        b != 0 && b >> 5 == 0
    }

    /// Whether this is a response code (class 2, 4 or 5).
    pub fn is_response(self) -> bool {
        matches!(self.to_byte() >> 5, 2 | 4 | 5)
    }

    /// Whether this signals success (class 2).
    pub fn is_success(self) -> bool {
        self.to_byte() >> 5 == 2
    }
}

/// Well-known option numbers (RFC 7252 §12.2, RFC 7641, RFC 7959).
pub mod option {
    /// Observe (RFC 7641).
    pub const OBSERVE: u16 = 6;
    /// Uri-Path (repeatable; one segment per option).
    pub const URI_PATH: u16 = 11;
    /// Content-Format.
    pub const CONTENT_FORMAT: u16 = 12;
    /// Max-Age.
    pub const MAX_AGE: u16 = 14;
    /// Uri-Query (repeatable).
    pub const URI_QUERY: u16 = 15;
    /// Block2 (RFC 7959): response payload blocks.
    pub const BLOCK2: u16 = 23;
    /// Block1 (RFC 7959): request payload blocks.
    pub const BLOCK1: u16 = 27;
}

/// Errors from [`Message::decode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Fewer than 4 header bytes.
    Truncated,
    /// Version field is not 1.
    BadVersion,
    /// Token length over 8.
    BadTokenLength,
    /// Malformed option encoding.
    BadOption,
    /// Payload marker present but no payload bytes follow.
    EmptyPayload,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message shorter than the fixed header"),
            DecodeError::BadVersion => write!(f, "unsupported coap version"),
            DecodeError::BadTokenLength => write!(f, "token length exceeds 8 bytes"),
            DecodeError::BadOption => write!(f, "malformed option encoding"),
            DecodeError::EmptyPayload => write!(f, "payload marker with empty payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A CoAP message.
///
/// # Examples
///
/// ```
/// use iiot_coap::message::{Code, Message, MsgType};
///
/// let req = Message::request(Code::Get, 0x1234, b"t1".to_vec())
///     .with_path("sensors/temp");
/// let bytes = req.encode();
/// let back = Message::decode(&bytes).expect("round trip");
/// assert_eq!(back.uri_path(), "sensors/temp");
/// assert_eq!(back.code, Code::Get);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// Message type.
    pub mtype: MsgType,
    /// Request/response code.
    pub code: Code,
    /// Message ID (deduplication and ACK matching).
    pub message_id: u16,
    /// Token (request/response matching), up to 8 bytes.
    pub token: Vec<u8>,
    /// Options as `(number, value)` pairs; kept sorted by number.
    pub options: Vec<(u16, Vec<u8>)>,
    /// Payload.
    pub payload: Vec<u8>,
}

impl Message {
    /// A confirmable request with the given code, message id and token.
    pub fn request(code: Code, message_id: u16, token: Vec<u8>) -> Self {
        debug_assert!(code.is_request());
        Message {
            mtype: MsgType::Confirmable,
            code,
            message_id,
            token,
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// A piggybacked response (ACK carrying the response) to `req`.
    pub fn response_to(req: &Message, code: Code) -> Self {
        Message {
            mtype: MsgType::Ack,
            code,
            message_id: req.message_id,
            token: req.token.clone(),
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// An empty ACK for `message_id` (separate-response pattern).
    pub fn empty_ack(message_id: u16) -> Self {
        Message {
            mtype: MsgType::Ack,
            code: Code::Empty,
            message_id,
            token: Vec::new(),
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// An RST for `message_id`.
    pub fn reset(message_id: u16) -> Self {
        Message {
            mtype: MsgType::Reset,
            code: Code::Empty,
            message_id,
            token: Vec::new(),
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Builder: sets the payload.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Builder: sets the Uri-Path from a `/`-separated string.
    pub fn with_path(mut self, path: &str) -> Self {
        self.set_path(path);
        self
    }

    /// Builder: adds an option.
    pub fn with_option(mut self, number: u16, value: Vec<u8>) -> Self {
        self.add_option(number, value);
        self
    }

    /// Adds an option, keeping the list sorted by number (stable for
    /// repeatable options).
    pub fn add_option(&mut self, number: u16, value: Vec<u8>) {
        let pos = self
            .options
            .iter()
            .position(|(n, _)| *n > number)
            .unwrap_or(self.options.len());
        self.options.insert(pos, (number, value));
    }

    /// First value of option `number`.
    pub fn option(&self, number: u16) -> Option<&[u8]> {
        self.options
            .iter()
            .find(|(n, _)| *n == number)
            .map(|(_, v)| v.as_slice())
    }

    /// All values of option `number` (repeatable options).
    pub fn option_values(&self, number: u16) -> impl Iterator<Item = &[u8]> {
        self.options
            .iter()
            .filter(move |(n, _)| *n == number)
            .map(|(_, v)| v.as_slice())
    }

    /// Removes every instance of option `number`.
    pub fn remove_option(&mut self, number: u16) {
        self.options.retain(|(n, _)| *n != number);
    }

    /// Replaces the Uri-Path options from a `/`-separated string.
    pub fn set_path(&mut self, path: &str) {
        self.remove_option(option::URI_PATH);
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            self.add_option(option::URI_PATH, seg.as_bytes().to_vec());
        }
    }

    /// The Uri-Path joined with `/`.
    pub fn uri_path(&self) -> String {
        self.option_values(option::URI_PATH)
            .map(|v| String::from_utf8_lossy(v).into_owned())
            .collect::<Vec<_>>()
            .join("/")
    }

    /// The Observe option as an integer, if present.
    pub fn observe(&self) -> Option<u32> {
        self.option(option::OBSERVE).map(uint_value)
    }

    /// Sets the Observe option.
    pub fn set_observe(&mut self, v: u32) {
        self.remove_option(option::OBSERVE);
        self.add_option(option::OBSERVE, uint_bytes(v));
    }

    /// Serializes to wire format.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(self.token.len() <= 8, "token too long");
        let mut out = Vec::with_capacity(8 + self.payload.len());
        out.push((VERSION << 6) | (self.mtype.to_bits() << 4) | (self.token.len() as u8 & 0x0F));
        out.push(self.code.to_byte());
        out.extend_from_slice(&self.message_id.to_be_bytes());
        out.extend_from_slice(&self.token);

        let mut sorted: Vec<&(u16, Vec<u8>)> = self.options.iter().collect();
        sorted.sort_by_key(|(n, _)| *n);
        let mut prev = 0u16;
        for (number, value) in sorted {
            let delta = number - prev;
            prev = *number;
            let (dn, dext) = nibble(delta);
            let (ln, lext) = nibble(value.len() as u16);
            out.push((dn << 4) | ln);
            out.extend_from_slice(&dext);
            out.extend_from_slice(&lext);
            out.extend_from_slice(value);
        }

        if !self.payload.is_empty() {
            out.push(0xFF);
            out.extend_from_slice(&self.payload);
        }
        out
    }

    /// Parses from wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the malformation.
    pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        if bytes.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        if bytes[0] >> 6 != VERSION {
            return Err(DecodeError::BadVersion);
        }
        let mtype = MsgType::from_bits(bytes[0] >> 4);
        let tkl = (bytes[0] & 0x0F) as usize;
        if tkl > 8 {
            return Err(DecodeError::BadTokenLength);
        }
        let code = Code::from_byte(bytes[1]);
        let message_id = u16::from_be_bytes([bytes[2], bytes[3]]);
        if bytes.len() < 4 + tkl {
            return Err(DecodeError::Truncated);
        }
        let token = bytes[4..4 + tkl].to_vec();

        let mut i = 4 + tkl;
        let mut options = Vec::new();
        let mut number = 0u16;
        let mut payload = Vec::new();
        while i < bytes.len() {
            if bytes[i] == 0xFF {
                if i + 1 >= bytes.len() {
                    return Err(DecodeError::EmptyPayload);
                }
                payload = bytes[i + 1..].to_vec();
                break;
            }
            let dn = bytes[i] >> 4;
            let ln = bytes[i] & 0x0F;
            i += 1;
            let delta = read_ext(bytes, &mut i, dn).ok_or(DecodeError::BadOption)?;
            let len = read_ext(bytes, &mut i, ln).ok_or(DecodeError::BadOption)? as usize;
            number = number.checked_add(delta).ok_or(DecodeError::BadOption)?;
            if i + len > bytes.len() {
                return Err(DecodeError::BadOption);
            }
            options.push((number, bytes[i..i + len].to_vec()));
            i += len;
        }

        Ok(Message {
            mtype,
            code,
            message_id,
            token,
            options,
            payload,
        })
    }
}

/// Option delta/length nibble encoding (RFC 7252 §3.1).
fn nibble(v: u16) -> (u8, Vec<u8>) {
    if v < 13 {
        (v as u8, vec![])
    } else if v < 269 {
        (13, vec![(v - 13) as u8])
    } else {
        (14, (v - 269).to_be_bytes().to_vec())
    }
}

fn read_ext(bytes: &[u8], i: &mut usize, n: u8) -> Option<u16> {
    match n {
        0..=12 => Some(n as u16),
        13 => {
            let b = *bytes.get(*i)?;
            *i += 1;
            Some(13 + b as u16)
        }
        14 => {
            let hi = *bytes.get(*i)?;
            let lo = *bytes.get(*i + 1)?;
            *i += 2;
            Some(269u16.checked_add(u16::from_be_bytes([hi, lo]))?)
        }
        _ => None, // 15 is reserved (payload marker handled earlier)
    }
}

/// Minimal-length big-endian uint option value.
pub fn uint_bytes(v: u32) -> Vec<u8> {
    if v == 0 {
        vec![]
    } else {
        v.to_be_bytes()
            .iter()
            .skip_while(|&&b| b == 0)
            .copied()
            .collect()
    }
}

/// Decodes a uint option value.
pub fn uint_value(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0u32, |acc, &b| (acc << 8) | b as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_round_trip() {
        let m = Message::request(Code::Get, 0xBEEF, vec![1, 2, 3]);
        let back = Message::decode(&m.encode()).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn path_options_round_trip() {
        let m = Message::request(Code::Put, 1, vec![9])
            .with_path("a/b/c")
            .with_payload(b"x=1".to_vec());
        let back = Message::decode(&m.encode()).expect("decode");
        assert_eq!(back.uri_path(), "a/b/c");
        assert_eq!(back.payload, b"x=1");
        assert_eq!(back.option_values(option::URI_PATH).count(), 3);
    }

    #[test]
    fn large_option_numbers_use_extended_deltas() {
        let mut m = Message::request(Code::Get, 2, vec![]);
        m.add_option(option::BLOCK2, vec![0x06]);
        m.add_option(2048, vec![1, 2]); // forces the 14 nibble
        let back = Message::decode(&m.encode()).expect("decode");
        assert_eq!(back.option(option::BLOCK2), Some(&[0x06][..]));
        assert_eq!(back.option(2048), Some(&[1, 2][..]));
    }

    #[test]
    fn observe_option() {
        let mut m = Message::request(Code::Get, 3, vec![7]);
        m.set_observe(0);
        assert_eq!(m.observe(), Some(0));
        m.set_observe(123456);
        let back = Message::decode(&m.encode()).expect("decode");
        assert_eq!(back.observe(), Some(123456));
    }

    #[test]
    fn empty_ack_and_reset() {
        let ack = Message::empty_ack(55);
        let back = Message::decode(&ack.encode()).expect("decode");
        assert_eq!(back.mtype, MsgType::Ack);
        assert_eq!(back.code, Code::Empty);
        assert_eq!(back.message_id, 55);

        let rst = Message::reset(56);
        let back = Message::decode(&rst.encode()).expect("decode");
        assert_eq!(back.mtype, MsgType::Reset);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(Message::decode(&[]).unwrap_err(), DecodeError::Truncated);
        assert_eq!(
            Message::decode(&[0x00, 0, 0, 0]).unwrap_err(),
            DecodeError::BadVersion
        );
        assert_eq!(
            Message::decode(&[0x49, 0, 0, 0]).unwrap_err(),
            DecodeError::BadTokenLength
        );
        // Payload marker with nothing after it.
        let mut m = Message::request(Code::Get, 1, vec![]).encode();
        m.push(0xFF);
        assert_eq!(Message::decode(&m).unwrap_err(), DecodeError::EmptyPayload);
        // Option claiming more bytes than present.
        let bad = vec![0x40, 0x01, 0, 1, 0x15]; // len=5 but no bytes
        assert_eq!(Message::decode(&bad).unwrap_err(), DecodeError::BadOption);
    }

    #[test]
    fn code_classification() {
        assert!(Code::Get.is_request());
        assert!(!Code::Content.is_request());
        assert!(Code::Content.is_response());
        assert!(Code::Content.is_success());
        assert!(Code::NotFound.is_response());
        assert!(!Code::NotFound.is_success());
        assert!(!Code::Empty.is_request());
        // Round-trip of arbitrary codes.
        for b in 0..=255u8 {
            assert_eq!(Code::from_byte(b).to_byte(), b);
        }
    }

    #[test]
    fn uint_codec() {
        assert_eq!(uint_bytes(0), Vec::<u8>::new());
        assert_eq!(uint_bytes(5), vec![5]);
        assert_eq!(uint_bytes(256), vec![1, 0]);
        assert_eq!(uint_value(&uint_bytes(123_456)), 123_456);
        assert_eq!(uint_value(&[]), 0);
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        (
            prop_oneof![
                Just(MsgType::Confirmable),
                Just(MsgType::NonConfirmable),
                Just(MsgType::Ack),
                Just(MsgType::Reset)
            ],
            any::<u8>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..=8),
            proptest::collection::vec(
                (1u16..1000, proptest::collection::vec(any::<u8>(), 0..32)),
                0..6,
            ),
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(mtype, code, mid, token, opts, payload)| {
                let mut m = Message {
                    mtype,
                    code: Code::from_byte(code),
                    message_id: mid,
                    token,
                    options: Vec::new(),
                    payload,
                };
                for (n, v) in opts {
                    m.add_option(n, v);
                }
                m
            })
    }

    proptest! {
        #[test]
        fn encode_decode_inverse(m in arb_message()) {
            let back = Message::decode(&m.encode()).expect("round trip");
            prop_assert_eq!(back, m);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Message::decode(&bytes);
        }
    }
}
