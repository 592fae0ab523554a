//! Property tests for the persisted uplink record (ROADMAP 5(a)): the
//! decoder is total over arbitrary bytes, accepts exactly
//! [`UPLINK_FRAME`]-byte inputs, and is the encoder's inverse bit for
//! bit — a NaN payload keeps its payload bits and a `u64::MAX`
//! timestamp survives.

use iiot_cloud::{decode_uplink, encode_uplink, TenantId, UplinkMsg, UPLINK_FRAME};
use iiot_sim::SimTime;
use proptest::prelude::*;

/// Any bit pattern: every NaN, both infinities, subnormals.
fn values() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        -1e9f64..1e9
    ]
}

fn times() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just(u64::MAX), Just(0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes of any length never panic the decoder, and only
    /// a whole frame decodes.
    #[test]
    fn decoder_is_total_and_length_exact(bytes in proptest::collection::vec(any::<u8>(), 0..3 * UPLINK_FRAME)) {
        prop_assert_eq!(decode_uplink(&bytes).is_some(), bytes.len() == UPLINK_FRAME);
    }

    /// Every frame-sized byte string is some uplink's encoding: no bit
    /// of the record is dropped or normalised on the way through.
    #[test]
    fn arbitrary_frames_re_encode_to_themselves(bytes in any::<[u8; UPLINK_FRAME]>()) {
        let msg = decode_uplink(&bytes).expect("whole frame");
        prop_assert_eq!(encode_uplink(&msg), bytes);
    }

    #[test]
    fn encode_decode_round_trips_every_field(
        tenant in any::<u16>(),
        device in any::<u32>(),
        token in any::<u64>(),
        value in values(),
        t in times(),
    ) {
        let msg = UplinkMsg {
            tenant: TenantId(tenant),
            device,
            token,
            value,
            t: SimTime::from_micros(t),
        };
        let back = decode_uplink(&encode_uplink(&msg)).expect("whole frame");
        prop_assert_eq!(
            (back.tenant, back.device, back.token, back.value.to_bits(), back.t),
            (msg.tenant, device, token, value.to_bits(), msg.t)
        );
    }
}
