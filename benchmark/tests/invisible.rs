//! The timing shims and the span recorder observe; they must not
//! change what the simulation does. A traced and an untraced run of one
//! seed have to agree on every count the sim keeps.

use iiot_benchmark::field::{self, FieldSpec};
use iiot_benchmark::plant::{self, PlantSpec};

#[test]
fn traced_plant_dispatches_what_the_plain_plant_does() {
    let spec = PlantSpec::new(true);
    let plain = plant::iterate(spec, 3, false, false);
    let traced = plant::iterate(spec, 3, true, false);
    assert!(plain.digest.events > 100_000 && plain.digest.collected > 0);
    assert!(plain.digest.latency_sum_us > 0);
    assert_eq!(plain.digest, traced.digest);
    let other_seed = plant::iterate(spec, 4, false, false);
    assert_ne!(
        plain.digest, other_seed.digest,
        "the digest must be able to tell runs apart"
    );
}

#[test]
fn traced_field_dense_dispatches_what_the_plain_one_does() {
    let spec = FieldSpec::new(1, true);
    let plain = field::iterate(spec, 3, false, false);
    let traced = field::iterate(spec, 3, true, false);
    assert!(plain.digest.events > 10_000);
    assert_eq!(plain.digest, traced.digest);
    assert!(traced.callbacks.calls > 0 && plain.callbacks.calls == 0);
}

#[test]
fn threaded_and_serial_shards_agree() {
    let spec = FieldSpec::new(2, true);
    let serial = field::iterate(spec, 3, false, false);
    let threaded = field::iterate(spec, 3, false, true);
    assert_eq!(serial.digest, threaded.digest);
}
