//! The replay contract of the random streams, pinned to literal values.
//!
//! Every seeded result in this workspace — golden digests, figure documents,
//! the benchmark's replay gate — is a function of these streams: the seed
//! derivation in `netsim::rng` and the generator behind `rand::rngs::SmallRng`
//! (an offline stand-in, see `vendor/README.md`).  If either changes, the
//! golden digests fail but cannot say why; these tests say which stream
//! moved.  The values are the ones every committed digest was produced with:
//! change them only together with a documented change of those digests.

use netsim::rng::{component_rng, derive_seed, group_seed, link_rng, sample_normal};
use rand::{Rng, RngCore};

/// The two master seeds the values below belong to: zero, and the stress
/// topology's seed ("JQoSSTRS").
const MASTERS: [u64; 2] = [0, 0x4A51_6F53_5354_5253];

#[test]
fn seed_derivation_is_pinned() {
    let expected = [
        (0x2c829abe1f4532e1, 0xe533e56a7f4949dc),
        (0x7d4cb92cc0ab2af5, 0x6acb03beba435e04),
    ];
    for (master, (derived, group)) in MASTERS.into_iter().zip(expected) {
        assert_eq!(derive_seed(master, 7), derived, "derive_seed, {master:#x}");
        assert_eq!(group_seed(master, 1), group, "group_seed, {master:#x}");
    }
}

/// The first four `next_u64` of `rng`, as hex words.
fn first_four(rng: &mut impl RngCore) -> String {
    let words: Vec<String> = (0..4).map(|_| format!("{:016x}", rng.next_u64())).collect();
    words.join(" ")
}

#[test]
fn component_and_link_streams_are_pinned() {
    let expected = [
        (
            "445f192396e79252 e0f3c6aeecdff49e 599b7f6e292648f4 b82a8019eebfacdc",
            "97c0522899b78eb1 257b13361954750b de2a8e3ec17ec26e 186c824fd845f5ab",
        ),
        (
            "f12b9e076a7da0f0 8ea8556271df9987 a58c28ded06a4388 b3a018bc4c615c67",
            "6ba24e82544421e7 758fa51b5c1a5b9f 3386e8ab657feabe 033671b4417a89e0",
        ),
    ];
    for (master, (component, link)) in MASTERS.into_iter().zip(expected) {
        let drawn = first_four(&mut component_rng(master, 3));
        assert_eq!(drawn, component, "component_rng, {master:#x}");
        let drawn = first_four(&mut link_rng(master, 1, 2));
        assert_eq!(drawn, link, "link_rng, {master:#x}");
    }
}

#[test]
fn range_float_and_normal_draws_are_pinned() {
    let expected = [
        (362, 0.8787197281898214, 48.2261783463715),
        (700, 0.5572560658782763, 45.68600581601949),
    ];
    for (master, (range, float, normal)) in MASTERS.into_iter().zip(expected) {
        let mut rng = component_rng(master, 3);
        assert_eq!(rng.gen_range(10u64..1000), range, "gen_range, {master:#x}");
        assert_eq!(rng.gen::<f64>(), float, "gen::<f64>, {master:#x}");
        let drawn = sample_normal(&mut rng, 50.0, 10.0);
        assert_eq!(drawn, normal, "sample_normal, {master:#x}");
    }
}
