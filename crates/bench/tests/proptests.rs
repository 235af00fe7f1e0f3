//! Property tests for the registry row schema: a row's line reads back as
//! the row, and its outputs still match their digest.

use disar_bench::registry::RegistryRow;
use disar_math::check::{cases, vec_of};
use disar_math::json::Json;
use disar_math::rng::Xoshiro256PlusPlus;

/// One to twelve lowercase letters.
fn any_name(rng: &mut Xoshiro256PlusPlus) -> String {
    let letters = vec_of(rng, 1..=12, |rng| {
        char::from(b'a' + rng.gen_range(0u32..26) as u8)
    });
    letters.into_iter().collect()
}

/// Any finite `f64`, drawn by bit pattern so that every exponent turns up.
fn any_finite(rng: &mut Xoshiro256PlusPlus) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

/// write → parse → identical, for rows with and without timings.
#[test]
fn row_serialization_roundtrips() {
    cases(256, |rng| {
        let (experiment, input) = (any_name(rng), rng.next_u64());
        let (x, y) = (rng.next_u64(), any_finite(rng));
        let (wall, timed) = (rng.next_u64(), rng.gen_bool(0.5));
        let mut row = RegistryRow::new(
            experiment,
            input,
            Json::obj([("x", x.into())]),
            Json::obj([("y", y.into())]),
            wall,
        );
        if timed {
            row = row.with_timings(Json::obj([("ns", wall.into())]));
        }
        let line = row.to_json().to_string();
        let parsed = RegistryRow::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, row);
        assert!(parsed.outputs_match(&row.outputs));
    });
}
