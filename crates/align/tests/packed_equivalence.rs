//! Property-based proof obligations for the packed kernel's bit-identity
//! contract: on any DNA-with-N input, [`PackedXDropAligner`] must return
//! exactly the same [`Extension`] — score, both extents, *and* the cell
//! count — as the scalar reference kernel.
//!
//! The packed kernel is the batched engine's exact `i32` fallback for
//! pairs that fail its `i16` precheck, so these properties keep every
//! downstream result (batch records, simulator task costs, TSVs)
//! independent of which route a pair took.

use gnb_align::xdrop::xdrop_extend;
use gnb_align::{PackedView, PackedXDropAligner, ScoringScheme};
use gnb_genome::PackedSeq;
use proptest::prelude::*;

fn dna_with_n(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        min_len..max_len,
    )
}

fn scheme() -> impl Strategy<Value = ScoringScheme> {
    (1..4i32, -4..-1i32, -4..-1i32).prop_map(|(m, x, g)| ScoringScheme::new(m, x, g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Raw kernel equivalence: identical `Extension` (score, extents,
    /// cells) on arbitrary DNA-with-N pairs across X thresholds and
    /// scoring schemes.
    #[test]
    fn packed_extension_matches_scalar(
        a in dna_with_n(0, 300),
        b in dna_with_n(0, 300),
        x in 0..100i32,
        sc in scheme(),
    ) {
        let reference = xdrop_extend(&a, &b, &sc, x);
        let (pa, pb) = (PackedSeq::from_bytes(&a), PackedSeq::from_bytes(&b));
        let mut al = PackedXDropAligner::new();
        let packed = al.extend(
            PackedView::full(pa.as_slice()),
            PackedView::full(pb.as_slice()),
            &sc,
            x,
        );
        prop_assert_eq!(packed, reference);
    }

    /// An aligner reused across many extensions (the production pattern:
    /// each batched engine owns one fallback aligner) must behave exactly
    /// like a fresh one — no state leaks between calls.
    #[test]
    fn packed_aligner_reuse_is_stateless(
        pairs in proptest::collection::vec(
            (dna_with_n(0, 120), dna_with_n(0, 120), 0..60i32), 1..8),
    ) {
        let sc = ScoringScheme::DEFAULT;
        let mut shared = PackedXDropAligner::new();
        for (a, b, x) in &pairs {
            let (pa, pb) = (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b));
            let (va, vb) = (PackedView::full(pa.as_slice()), PackedView::full(pb.as_slice()));
            let got = shared.extend(va, vb, &sc, *x);
            let fresh = PackedXDropAligner::new().extend(va, vb, &sc, *x);
            prop_assert_eq!(got, fresh);
            prop_assert_eq!(got, xdrop_extend(a, b, &sc, *x));
        }
    }
}
