//! Seed index: posting lists from retained k-mers to read positions.
//!
//! After the BELLA filter, every retained k-mer's occurrence list is the
//! witness set for candidate overlaps: any two reads on the same posting
//! list are a candidate pair, with the k-mer's positions in each read as
//! the alignment seed (paper Fig. 1). Lists are built with the same
//! sharding scheme as counting, and like counting on one thread (the
//! vendored `rayon` shim is sequential).

use crate::count::KmerCounts;
use crate::kmer::{kmers_oriented, Kmer};
use gnb_genome::ReadSet;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;

/// One occurrence of a retained k-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Read id.
    pub read: u32,
    /// Window start position within the read.
    pub pos: u32,
    /// `true` if the canonical k-mer equals the read's forward window here;
    /// two postings with differing `fwd` witness an opposite-strand overlap.
    pub fwd: bool,
}

/// Posting lists of retained k-mers.
#[derive(Debug)]
pub struct SeedIndex {
    shards: Vec<HashMap<Kmer, Vec<Posting>>>,
    shard_bits: u32,
    /// k the index was built at.
    pub k: usize,
}

impl SeedIndex {
    /// Builds posting lists for every k-mer still present in `counts`
    /// (i.e. after [`KmerCounts::filter_frequency`] has been applied).
    ///
    /// Each read contributes at most one posting per (k-mer, read) pair —
    /// repeated occurrences of a k-mer within one read would only produce
    /// duplicate candidates with shifted seeds, and the paper extends
    /// exactly one seed per candidate pair.
    pub fn build(reads: &ReadSet, counts: &KmerCounts) -> Self {
        let k = counts.k;
        let shard_bits = 6u32;
        let nshards = 1usize << shard_bits;
        let shards: Vec<Mutex<HashMap<Kmer, Vec<Posting>>>> =
            (0..nshards).map(|_| Mutex::new(HashMap::new())).collect();

        let ids: Vec<usize> = (0..reads.len()).collect();
        ids.par_chunks(256).for_each(|chunk| {
            let mut local: Vec<Vec<(Kmer, Posting)>> = vec![Vec::new(); nshards];
            let mut seen_in_read: Vec<Kmer> = Vec::new();
            for &i in chunk {
                seen_in_read.clear();
                for (pos, km, fwd) in kmers_oriented(reads.read(i), k) {
                    if counts.get(km) == 0 {
                        continue; // filtered out
                    }
                    // Keep first occurrence per read only.
                    if seen_in_read.contains(&km) {
                        continue;
                    }
                    seen_in_read.push(km);
                    let s = (km.hash64() >> (64 - shard_bits)) as usize;
                    local[s].push((
                        km,
                        Posting {
                            read: i as u32,
                            pos: pos as u32,
                            fwd,
                        },
                    ));
                }
            }
            for (s, buf) in local.into_iter().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let mut guard = shards[s].lock();
                for (km, p) in buf {
                    guard.entry(km).or_default().push(p);
                }
            }
        });

        let mut shards: Vec<HashMap<Kmer, Vec<Posting>>> =
            shards.into_iter().map(|m| m.into_inner()).collect();
        // Sort posting lists by read id so candidate generation is
        // deterministic regardless of thread interleaving.
        for shard in &mut shards {
            for list in shard.values_mut() {
                list.sort_unstable_by_key(|p| (p.read, p.pos));
            }
        }
        SeedIndex {
            shards,
            shard_bits,
            k,
        }
    }

    /// As [`SeedIndex::build`], but each read contributes only its
    /// *minimizers* (window `w`, in k-mers) rather than every retained
    /// k-mer — the sparse seed-selection advance the paper anticipates
    /// ("simulating expected advances in seed-selection techniques", §4).
    /// Frequency filtering still applies: a minimizer whose k-mer was
    /// dropped by the BELLA interval contributes nothing.
    pub fn build_minimizers(reads: &ReadSet, counts: &KmerCounts, w: usize) -> Self {
        let k = counts.k;
        let shard_bits = 6u32;
        let nshards = 1usize << shard_bits;
        let shards: Vec<Mutex<HashMap<Kmer, Vec<Posting>>>> =
            (0..nshards).map(|_| Mutex::new(HashMap::new())).collect();

        let ids: Vec<usize> = (0..reads.len()).collect();
        ids.par_chunks(256).for_each(|chunk| {
            let mut local: Vec<Vec<(Kmer, Posting)>> = vec![Vec::new(); nshards];
            let mut seen_in_read: Vec<Kmer> = Vec::new();
            for &i in chunk {
                seen_in_read.clear();
                for m in crate::minimizer::minimizers(reads.read(i), k, w) {
                    if counts.get(m.kmer) == 0 || seen_in_read.contains(&m.kmer) {
                        continue;
                    }
                    seen_in_read.push(m.kmer);
                    let s = (m.kmer.hash64() >> (64 - shard_bits)) as usize;
                    local[s].push((
                        m.kmer,
                        Posting {
                            read: i as u32,
                            pos: m.pos,
                            fwd: m.fwd,
                        },
                    ));
                }
            }
            for (s, buf) in local.into_iter().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let mut guard = shards[s].lock();
                for (km, p) in buf {
                    guard.entry(km).or_default().push(p);
                }
            }
        });

        let mut shards: Vec<HashMap<Kmer, Vec<Posting>>> =
            shards.into_iter().map(|m| m.into_inner()).collect();
        for shard in &mut shards {
            for list in shard.values_mut() {
                list.sort_unstable_by_key(|p| (p.read, p.pos));
            }
        }
        SeedIndex {
            shards,
            shard_bits,
            k,
        }
    }

    /// Posting list of `km`, if retained.
    pub fn get(&self, km: Kmer) -> Option<&[Posting]> {
        let s = (km.hash64() >> (64 - self.shard_bits)) as usize;
        self.shards[s].get(&km).map(|v| v.as_slice())
    }

    /// Number of distinct retained k-mers with at least one posting.
    pub fn distinct(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Iterates all `(kmer, posting list)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Kmer, &[Posting])> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.iter().map(|(&km, v)| (km, v.as_slice())))
    }

    /// Total number of postings.
    pub fn total_postings(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.values())
            .map(|v| v.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_kmers_serial;
    use gnb_genome::reads::{ReadOrigin, ReadSet, Strand};

    fn set(seqs: &[&[u8]]) -> ReadSet {
        let mut rs = ReadSet::new();
        for s in seqs {
            rs.push(
                s,
                ReadOrigin {
                    start: 0,
                    ref_len: s.len(),
                    strand: Strand::Forward,
                },
            );
        }
        rs
    }

    #[test]
    fn postings_point_back_to_reads() {
        let reads = set(&[b"ACGTACGTGGCC", b"TTACGTACGAAT"]);
        let counts = count_kmers_serial(&reads, 5);
        let idx = SeedIndex::build(&reads, &counts);
        for (km, list) in idx.iter() {
            for p in list {
                let seq = reads.read(p.read as usize);
                let window = &seq[p.pos as usize..p.pos as usize + 5];
                let got = Kmer::from_seq(window, 5).unwrap().canonical(5);
                assert_eq!(got, km);
            }
        }
    }

    #[test]
    fn filtered_kmers_have_no_postings() {
        let reads = set(&[b"AAAAAAAAAA", b"ACGTACGTAC"]);
        let mut counts = count_kmers_serial(&reads, 4);
        counts.filter_frequency(2, 3);
        let idx = SeedIndex::build(&reads, &counts);
        let poly_a = Kmer::from_seq(b"AAAA", 4).unwrap().canonical(4);
        assert!(idx.get(poly_a).is_none());
    }

    #[test]
    fn one_posting_per_read_per_kmer() {
        // "ACGTACGTACGT" contains ACGT at positions 0, 4, 8 — the index
        // must record only the first.
        let reads = set(&[b"ACGTACGTACGT"]);
        let counts = count_kmers_serial(&reads, 4);
        let idx = SeedIndex::build(&reads, &counts);
        let km = Kmer::from_seq(b"ACGT", 4).unwrap().canonical(4);
        let list = idx.get(km).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(
            list[0],
            Posting {
                read: 0,
                pos: 0,
                fwd: true,
            }
        );
    }

    #[test]
    fn shared_kmer_links_two_reads() {
        // Both reads contain the 8-mer ACGTACGG (read 1 in reverse
        // complement via canonicalization would also count).
        let reads = set(&[b"GGGGACGTACGGCC", b"TTTTACGTACGGTT"]);
        let counts = count_kmers_serial(&reads, 8);
        let idx = SeedIndex::build(&reads, &counts);
        // Find any k-mer with postings in both reads.
        let mut linked = false;
        for (_, list) in idx.iter() {
            let r0 = list.iter().any(|p| p.read == 0);
            let r1 = list.iter().any(|p| p.read == 1);
            if r0 && r1 {
                linked = true;
            }
        }
        assert!(linked, "the shared 8-mer window should link the reads");
    }

    #[test]
    fn minimizer_index_is_sparser_but_consistent() {
        let preset = gnb_genome::presets::ecoli_30x().scaled(1024);
        let reads = preset.generate(41);
        let counts = count_kmers_serial(&reads, 15);
        let full = SeedIndex::build(&reads, &counts);
        let mini = SeedIndex::build_minimizers(&reads, &counts, 10);
        assert!(
            mini.total_postings() * 3 < full.total_postings(),
            "minimizers must thin the index: {} vs {}",
            mini.total_postings(),
            full.total_postings()
        );
        // Every minimizer posting points at a real window of the read.
        for (km, list) in mini.iter() {
            for p in list {
                let seq = reads.read(p.read as usize);
                let window = &seq[p.pos as usize..p.pos as usize + 15];
                assert_eq!(Kmer::from_seq(window, 15).unwrap().canonical(15), km);
            }
        }
    }

    #[test]
    fn minimizer_index_respects_filter() {
        let reads = set(&[b"AAAAAAAAAAAAAAAA", b"ACGTACGTACGTACGT"]);
        let mut counts = count_kmers_serial(&reads, 4);
        counts.filter_frequency(2, 3); // drops the poly-A 4-mer (count 13)
        let idx = SeedIndex::build_minimizers(&reads, &counts, 3);
        let poly_a = Kmer::from_seq(b"AAAA", 4).unwrap().canonical(4);
        assert!(idx.get(poly_a).is_none());
    }

    #[test]
    fn posting_lists_sorted_by_read() {
        let reads = set(&[b"CCACGTACGG", b"AAACGTACTT", b"GGACGTACAA"]);
        let counts = count_kmers_serial(&reads, 8);
        let idx = SeedIndex::build(&reads, &counts);
        for (_, list) in idx.iter() {
            for w in list.windows(2) {
                assert!((w[0].read, w[0].pos) <= (w[1].read, w[1].pos));
            }
        }
        assert!(idx.total_postings() >= idx.distinct());
    }
}
