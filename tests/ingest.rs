//! Acceptance contract for the hardened telemetry ingest plane.
//!
//! Four properties, end to end:
//!
//! 1. **Identity at severity zero** — re-encoding the synthetic batch
//!    stream as syslog/CEF datagrams and decoding it back through
//!    `fleetd::ingest` yields a hosts CSV byte-identical to the
//!    synthetic-batch daemon path, at any worker thread count.
//! 2. **Zero panics, conserved accounting at any severity** — a faulted
//!    wire (drops, duplicates, corruption, truncation) may shrink what
//!    survives, but `received = accepted + shed + malformed` always
//!    holds and nothing ever panics, across the full severity sweep.
//! 3. **Floods degrade, never distort** — an over-limit source is shed
//!    deterministically and surfaces as `LowCoverage`/`Dark` in the
//!    degraded evaluation; honest hosts are untouched.
//! 4. **Totality under hostile bytes** — a pinned corpus of adversarial
//!    datagrams plus property suites pin the parsers as total functions
//!    and `sanitize` as idempotent.

use experiments::daemon::{self, unique_run_dir};
use experiments::ingest::{self, IngestScenario, DNS_NAME_POOL};
use experiments::{Corpus, CorpusConfig};
use fleetd::{
    decode_batch_datagram, encode_batch_datagram, encode_dns_datagram, sanitize, IngestConfig,
    IngestOutcome, Ingestor, Lane, Week, WindowBatch,
};
use hids_core::degraded::HostStatus;
use netpkt::Layer;
use proptest::prelude::*;

fn small_corpus() -> Corpus {
    Corpus::generate(CorpusConfig {
        n_users: 6,
        n_weeks: 2,
        seed: 0x1257_BEEF,
        ..CorpusConfig::small()
    })
}

fn run_ingest(tag: &str, corpus: &Corpus, scenario: &IngestScenario) -> ingest::IngestRun {
    let dir = unique_run_dir(tag);
    let r = ingest::run(&dir, corpus, scenario).expect("ingest run");
    let _ = std::fs::remove_dir_all(&dir);
    r
}

// ---------------------------------------------------------------------
// 1. Identity at severity zero, across thread counts
// ---------------------------------------------------------------------

/// The wire format, parser, and rate limiter must be invisible on a
/// clean wire: the downstream hosts CSV is byte-identical to the
/// synthetic-batch path, and identical again at 1, 4, and 32 worker
/// threads (the evaluation engine is the only parallel stage).
#[test]
fn severity_zero_csv_identical_to_synthetic_path_across_threads() {
    let csv_at = |threads: usize| -> (String, String) {
        hids_core::set_threads(threads);
        let corpus = small_corpus();
        let scenario = IngestScenario::default();
        let r = run_ingest("ingest-threads", &corpus, &scenario);
        r.check().expect("invariants");
        assert_eq!(r.stats.shed, 0, "honest stream must never shed");
        assert_eq!(r.stats.malformed, 0, "clean wire must never malform");

        let batches = daemon::build_batches(&corpus, &scenario.daemon);
        let ref_dir = unique_run_dir("ingest-threads-ref");
        let reference =
            daemon::run(&ref_dir, &scenario.daemon, &batches, &[]).expect("reference run");
        let _ = std::fs::remove_dir_all(&ref_dir);
        (r.hosts_csv(), daemon::hosts_csv(&reference))
    };

    let (one, one_ref) = csv_at(1);
    let (four, _) = csv_at(4);
    let (thirty_two, _) = csv_at(32);
    hids_core::set_threads(0); // restore auto-detection for other tests

    assert_eq!(
        one.as_bytes(),
        one_ref.as_bytes(),
        "severity-0 ingest differs from the synthetic path"
    );
    assert_eq!(one.as_bytes(), four.as_bytes(), "CSV differs at 4 threads");
    assert_eq!(one.as_bytes(), thirty_two.as_bytes(), "CSV differs at 32 threads");
}

// ---------------------------------------------------------------------
// 2. Severity sweep: zero panics, conserved accounting
// ---------------------------------------------------------------------

/// The acceptance sweep from the issue: severities {0, 0.05, 0.2, 1.0}
/// through the full encode → fault → ingest → daemon → evaluate
/// pipeline. No panics (the test completing is the witness), and the
/// checked conservation law plus the daemon's own invariants hold at
/// every point. Re-running a severity with the same seed must reproduce
/// the exact counter state — the sweep is replayable, not sampled.
#[test]
fn severity_sweep_never_panics_and_conserves() {
    let corpus = small_corpus();
    for &severity in &[0.0, 0.05, 0.2, 1.0] {
        let scenario = IngestScenario {
            severity,
            ..IngestScenario::default()
        };
        let r = run_ingest("ingest-sweep", &corpus, &scenario);
        r.check()
            .unwrap_or_else(|e| panic!("severity {severity}: {e}"));
        assert_eq!(
            r.stats.received,
            r.stats.accepted + r.stats.shed + r.stats.malformed,
            "severity {severity}: conservation must hold exactly"
        );
        let by_layer: u64 = Layer::ALL.iter().map(|&l| r.stats.malformed_at(l)).sum();
        assert_eq!(
            by_layer, r.stats.malformed,
            "severity {severity}: per-layer malformed counts must sum to the total"
        );

        let replay = run_ingest("ingest-sweep-replay", &corpus, &scenario);
        assert_eq!(replay.stats, r.stats, "severity {severity}: sweep must replay exactly");
        assert_eq!(replay.accepted_batches, r.accepted_batches);
    }
}

// ---------------------------------------------------------------------
// 3. Flood control: degraded, not distorted
// ---------------------------------------------------------------------

/// A flooding source exhausts its own token bucket, its real telemetry
/// is shed, and the host lands in LowCoverage/Dark — while every honest
/// host still evaluates cleanly. The flood must also latch (one event,
/// not one per shed datagram).
#[test]
fn flooded_source_degrades_without_touching_honest_hosts() {
    let corpus = small_corpus();
    let flooded: u32 = 4;
    let scenario = IngestScenario {
        flood_hosts: vec![flooded],
        ..IngestScenario::default()
    };
    let r = run_ingest("ingest-flood", &corpus, &scenario);
    r.check().expect("invariants");

    assert!(r.stats.shed > 0, "flood must shed");
    assert_eq!(r.stats.flood_latched, 1, "exactly one source must latch");
    let status = r.host_status(flooded).expect("flooded host must stay in the host table");
    assert!(
        matches!(status, HostStatus::LowCoverage | HostStatus::Dark),
        "flooded host must degrade, got {status:?}"
    );
    for host in 0..corpus.n_users() as u32 {
        if host == flooded {
            continue;
        }
        assert_eq!(
            r.host_status(host),
            Some(HostStatus::Evaluated),
            "honest host {host} must be unaffected by another source's flood"
        );
    }
}

// ---------------------------------------------------------------------
// 4a. DNS case-fold regression (pinned)
// ---------------------------------------------------------------------

/// Pinned regression: the same name under different letter case must
/// count as ONE distinct contact. Before the ingest boundary folded
/// names, `NTP.Example.COM` and `ntp.example.com` double-counted.
#[test]
fn dns_case_spellings_count_as_one_contact() {
    let mut ing = Ingestor::new(IngestConfig::default());
    let spellings = ["ntp.example.com", "NTP.EXAMPLE.COM", "Ntp.Example.Com"];
    let mut novel = 0u64;
    for (i, name) in spellings.iter().enumerate() {
        let wire = encode_dns_datagram(i as u16, name).expect("valid query");
        match ing.ingest(0, 7, Lane::Dns, &wire) {
            IngestOutcome::Dns { novel: n, .. } => novel += u64::from(n),
            other => panic!("query {name:?} rejected: {other:?}"),
        }
    }
    assert_eq!(novel, 1, "three case spellings of one name must be one contact");
    let distinct: u64 = ing.dns_distinct(7).iter().map(|(_, n)| n).sum();
    assert_eq!(distinct, 1);
    assert_eq!(ing.stats().dns_queries, 3);

    // And end-to-end: the mixed-case pool in the experiment harness must
    // produce the same distinct totals as an all-lowercase fleet would.
    let corpus = small_corpus();
    let r = run_ingest("ingest-fold", &corpus, &IngestScenario::default());
    assert!(r.stats.dns_novel < r.stats.dns_queries);
    assert!(r.dns_distinct_total <= (corpus.n_users() * DNS_NAME_POOL.len()) as u64 * 2);
}

// ---------------------------------------------------------------------
// 4b. Pinned hostile datagram corpus
// ---------------------------------------------------------------------

/// Adversarial datagrams that previously crashed naive parsers, each
/// pinned so a regression names the exact input. Every one must come
/// back `Malformed` (never a batch, never a panic) and the accounting
/// must absorb all of them.
#[test]
fn hostile_datagram_corpus_is_rejected_not_fatal() {
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        ("empty", vec![]),
        ("single-nul", vec![0]),
        ("all-0xff", vec![0xFF; 64]),
        ("invalid-utf8", vec![0xC3, 0x28, 0xE2, 0x82, 0x28, 0xF0, 0x90, 0x28]),
        ("bare-pri", b"<134>".to_vec()),
        ("pri-overflow", b"<99999>1 - h a - - - CEF:0|v|p|1|s|n|3|".to_vec()),
        ("pri-leading-zero", b"<013>1 - h a - - - msg".to_vec()),
        ("unterminated-pri", b"<134 1 - h a - - - msg".to_vec()),
        ("missing-msg", b"<134>1 - host app - - -".to_vec()),
        ("cef-too-few-pipes", b"<134>1 - h a - - - CEF:0|vendor|product".to_vec()),
        ("cef-bad-version", b"<134>1 - h a - - - CEF:X|v|p|1|s|n|3|k=v".to_vec()),
        (
            "cef-trailing-escape",
            b"<134>1 - h a - - - CEF:0|v|p|1|s|n|3|key=value\\".to_vec(),
        ),
        (
            "cef-counts-not-numeric",
            b"<134>1 - h a - - - CEF:0|hids|fleetd|1|batch|b|3|host=1 seq=1 week=train start=0 counts=a,b"
                .to_vec(),
        ),
        (
            "cef-week-unknown",
            b"<134>1 - h a - - - CEF:0|hids|fleetd|1|batch|b|3|host=1 seq=1 week=lunar start=0 counts=1"
                .to_vec(),
        ),
        (
            "cef-host-overflow",
            b"<134>1 - h a - - - CEF:0|hids|fleetd|1|batch|b|3|host=99999999999999999999 seq=1 week=train start=0 counts=1"
                .to_vec(),
        ),
        (
            "ansi-injection",
            b"<134>1 - h a - - - \x1b[2J\x1b[31mCEF:0|v|p|1|s|n|3|k=\x1b[0mv\x07".to_vec(),
        ),
        ("control-soup", (0u8..32).chain(0u8..32).collect()),
        ("giant-field", {
            let mut v = b"<134>1 - ".to_vec();
            v.extend(std::iter::repeat(b'h').take(10_000));
            v.extend(b" a - - - msg");
            v
        }),
        ("extension-bomb", {
            let mut v = b"<134>1 - h a - - - CEF:0|v|p|1|s|n|3|".to_vec();
            for i in 0..500 {
                v.extend(format!("k{i}=v{i} ").into_bytes());
            }
            v
        }),
        ("nul-in-extensions", {
            let mut v = b"<134>1 - h a - - - CEF:0|v|p|1|s|n|3|k=".to_vec();
            v.push(0);
            v.extend(b"v");
            v
        }),
    ];

    let mut ing = Ingestor::new(IngestConfig::default());
    for (i, (name, payload)) in hostile.iter().enumerate() {
        let outcome = ing.ingest(i as u64, i as u32, Lane::Syslog, payload);
        assert!(
            matches!(outcome, IngestOutcome::Malformed(_)),
            "hostile datagram {name:?} must be Malformed, got {outcome:?}"
        );
        // The same bytes on the DNS lane must also be rejected cleanly.
        let dns = ing.ingest(i as u64, i as u32, Lane::Dns, payload);
        assert!(
            !matches!(dns, IngestOutcome::Batch(_)),
            "hostile datagram {name:?} decoded as a batch on the DNS lane"
        );
    }
    let stats = ing.stats();
    assert!(stats.conservation_holds(), "hostile corpus broke accounting");
    assert_eq!(stats.received, 2 * hostile.len() as u64);
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.malformed, stats.received);
    // Layer attribution: some fail at the syslog frame, some inside CEF.
    assert!(stats.malformed_at(Layer::Syslog) > 0);
    assert!(stats.malformed_at(Layer::Cef) > 0);
}

// ---------------------------------------------------------------------
// 4c. Property suites: totality, idempotence, round-trip
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both ingest lanes are total over arbitrary bytes: no input may
    /// panic, and the conservation law survives any interleaving.
    #[test]
    fn ingest_total_on_garbage(
        datagrams in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..300)),
            0..40,
        )
    ) {
        let mut ing = Ingestor::new(IngestConfig::default());
        for (i, (dns, payload)) in datagrams.iter().enumerate() {
            let lane = if *dns { Lane::Dns } else { Lane::Syslog };
            let _ = ing.ingest(i as u64, (i % 5) as u32, lane, payload);
        }
        prop_assert!(ing.stats().conservation_holds());
    }

    /// `decode_batch_datagram` is a total function of the payload.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = decode_batch_datagram(&bytes, &IngestConfig::default());
    }

    /// Sanitization is idempotent — running it twice changes nothing —
    /// and its output carries no control bytes and respects the bound.
    #[test]
    fn sanitize_is_idempotent_and_clean(
        input in "\\PC*",
        max_len in 1usize..512,
    ) {
        let once = sanitize(&input, max_len);
        let twice = sanitize(&once, max_len);
        prop_assert_eq!(&once, &twice, "sanitize must be idempotent");
        prop_assert!(once.chars().all(|c| !c.is_control()));
        prop_assert!(once.len() <= max_len);
    }

    /// Sanitization stays idempotent on raw (possibly invalid) bytes fed
    /// through the same lossy-UTF-8 door the ingest path uses.
    #[test]
    fn sanitize_idempotent_on_lossy_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        max_len in 1usize..512,
    ) {
        let input = String::from_utf8_lossy(&bytes);
        let once = sanitize(&input, max_len);
        prop_assert_eq!(sanitize(&once, max_len), once);
    }

    /// Every well-formed batch survives the wire round-trip exactly,
    /// under any hostname and app-name the sanitizer keeps, the empty
    /// ones (sent as the NILVALUE `-`) included.
    #[test]
    fn batch_roundtrips_through_wire_encoding(
        hostname in "[a-zA-Z0-9 .=|\\\\é世-]{0,64}",
        app in "[a-zA-Z0-9 .=|\\\\é世-]{0,64}",
        host in 0u32..100_000,
        seq in 1u64..1_000_000,
        test_week in any::<bool>(),
        start in 0u32..1_000_000,
        counts in proptest::collection::vec(0u64..1_000_000, 1..128),
        poison in any::<bool>(),
    ) {
        let batch = WindowBatch {
            host,
            seq,
            week: if test_week { Week::Test } else { Week::Train },
            start,
            counts,
            poison,
        };
        let wire = encode_batch_datagram(&batch, &hostname, &app);
        let decoded = decode_batch_datagram(&wire, &IngestConfig::default());
        prop_assert_eq!(decoded.as_ref().ok(), Some(&batch));
    }
}

// ---------------------------------------------------------------------
// 4d. SWAR hot path vs scalar oracle (differential)
// ---------------------------------------------------------------------
//
// The word-at-a-time sanitizer must be indistinguishable from the
// retained per-character implementation (`fleetd::ingest::oracle`) on
// every input — content, the `Cow` borrow/own decision, and idempotence.
// The crate-internal suites pin each primitive; these acceptance suites
// pin the public surface, on text skewed toward the bytes that matter
// (ESC, CSI/OSC openers and terminators, C0/C1 controls, multi-byte).

/// Generation weighted toward sanitizer-relevant bytes: escapes,
/// brackets, terminators, controls, DEL, a C1, and multi-byte chars.
const SANITIZER_HOSTILE: &str = "[\u{0}-\u{9f}\u{1b}\u{1b}\u{1b}\u{7}\u{7}\
     \\[\\[\\]\\]\\\\09AZaz;=|\u{7f}\u{9b}\u{e9}\u{4e16}]{0,64}";

/// Envelope fields weighted toward what the encoder rewrites (`\`, `|`,
/// space) and what it must pass through (`=`, C0 controls, multi-byte
/// chars), empty included.
const ENVELOPE_HOSTILE: &str = "[\\\\\\\\\\\\||||    ==\u{0}\u{9}\u{a}\u{1b}\u{1f}\
     aZ09\u{e9}\u{4e16}\u{1f600}]{0,32}";

/// Count vectors for the encoder differential. Any length in
/// `1..=MAX_BATCH_WINDOWS` can be drawn and the bound itself is drawn
/// often, but most cases stay short so the suite runs in seconds. Values
/// mix `0`, `u64::MAX`, small counts and full-width ones, from a
/// splitmix stream so a million-count vector costs no strategy calls.
fn wire_counts() -> impl Strategy<Value = Vec<u64>> {
    let max = fleetd::codec::MAX_BATCH_WINDOWS as usize;
    (0u32..64, 1usize..=128, 1usize..=max, any::<u64>()).prop_map(
        move |(pick, short, long, mut state)| {
            let len = match pick {
                0 => max,
                1 => long,
                _ => short,
            };
            (0..len)
                .map(|_| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    match z % 4 {
                        0 => 0,
                        1 => u64::MAX,
                        2 => z % 1000,
                        _ => z,
                    }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SWAR sanitize ≡ scalar oracle: same bytes out, same borrow/own
    /// decision, and both idempotent, on hostile-skewed text.
    #[test]
    fn swar_sanitize_matches_scalar_oracle(
        input in SANITIZER_HOSTILE,
        max_len in 1usize..96,
    ) {
        let fast = sanitize(&input, max_len);
        let slow = fleetd::ingest::oracle::sanitize(&input, max_len);
        prop_assert_eq!(fast.as_ref(), slow.as_ref(), "content diverged on {:?}", input);
        prop_assert_eq!(
            matches!(fast, std::borrow::Cow::Borrowed(_)),
            matches!(slow, std::borrow::Cow::Borrowed(_)),
            "Cow decision diverged on {:?}", input
        );
        prop_assert_eq!(sanitize(&fast, max_len).as_ref(), fast.as_ref());
    }

    /// The equivalence survives the lossy-UTF-8 door raw datagrams come
    /// through (replacement chars, truncated multi-byte tails).
    #[test]
    fn swar_sanitize_matches_oracle_on_lossy_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        max_len in 1usize..96,
    ) {
        let input = String::from_utf8_lossy(&bytes);
        let fast = sanitize(&input, max_len);
        let slow = fleetd::ingest::oracle::sanitize(&input, max_len);
        prop_assert_eq!(fast.as_ref(), slow.as_ref());
        prop_assert_eq!(
            matches!(fast, std::borrow::Cow::Borrowed(_)),
            matches!(slow, std::borrow::Cow::Borrowed(_))
        );
    }

    /// The one-buffer batch encoder ≡ its `format!`/`join` oracle, byte
    /// for byte: counts at both extremes, both weeks, `poison` both ways,
    /// and envelope fields full of escapes, spaces, controls and
    /// multi-byte chars.
    #[test]
    fn batch_encoder_matches_format_oracle(
        hostname in ENVELOPE_HOSTILE,
        app in ENVELOPE_HOSTILE,
        host in any::<u32>(),
        seq in any::<u64>(),
        test_week in any::<bool>(),
        start in any::<u32>(),
        counts in wire_counts(),
        poison in any::<bool>(),
    ) {
        let batch = WindowBatch {
            host,
            seq,
            week: if test_week { Week::Test } else { Week::Train },
            start,
            counts,
            poison,
        };
        let fast = encode_batch_datagram(&batch, &hostname, &app);
        let slow = fleetd::ingest::oracle::encode_batch_datagram(&batch, &hostname, &app);
        // Report the first divergence, not two datagrams that may each
        // run to megabytes.
        let at = fast.iter().zip(&slow).take_while(|(a, b)| a == b).count();
        let near = |v: &[u8]| {
            String::from_utf8_lossy(&v[at.saturating_sub(24)..v.len().min(at + 24)]).into_owned()
        };
        prop_assert!(
            fast == slow,
            "encoders diverge at byte {} ({} vs {} bytes): {:?} vs {:?}",
            at, fast.len(), slow.len(), near(&fast), near(&slow)
        );
    }

    /// The SWAR DNS name fold ≡ its char-at-a-time oracle.
    #[test]
    fn dns_fold_matches_scalar_oracle(name in "\\PC{0,64}") {
        prop_assert_eq!(netpkt::fold_name(&name), netpkt::fold_name_oracle(&name));
    }
}

/// The pinned hostile corpus, replayed through both sanitizers: every
/// adversarial payload that ever crashed a parser must sanitize to the
/// same bytes with the same borrow decision on the SWAR and scalar
/// paths.
#[test]
fn hostile_corpus_sanitizes_identically_on_swar_and_oracle() {
    let corpus: Vec<Vec<u8>> = vec![
        vec![],
        vec![0],
        vec![0xFF; 64],
        vec![0xC3, 0x28, 0xE2, 0x82, 0x28, 0xF0, 0x90, 0x28],
        b"<134>1 - h a - - - \x1b[2J\x1b[31mCEF:0|v|p|1|s|n|3|k=\x1b[0mv\x07".to_vec(),
        b"\x1b]0;evil title\x07<134>1 - h a - - - msg".to_vec(),
        b"\x1b]payload\x1b\\still here\x1b]unterminated".to_vec(),
        (0u8..32).chain(0u8..32).collect(),
        b"\x1b".to_vec(),
        b"\x1bA".to_vec(),
        b"abc\x1b[".to_vec(),
        vec![0xC2, 0x9B, b'[', b'2', b'J'], // C1 CSI spelled in UTF-8
        encode_batch_datagram(
            &WindowBatch {
                host: 1,
                seq: 1,
                week: Week::Train,
                start: 0,
                counts: vec![1, 2, 3],
                poison: false,
            },
            "h",
            "a",
        ),
    ];
    for (i, payload) in corpus.iter().enumerate() {
        let input = String::from_utf8_lossy(payload);
        for max_len in [1usize, 7, 64, 8 * 1024] {
            let fast = sanitize(&input, max_len);
            let slow = fleetd::ingest::oracle::sanitize(&input, max_len);
            assert_eq!(fast, slow, "corpus[{i}] content diverged at max_len {max_len}");
            assert_eq!(
                matches!(fast, std::borrow::Cow::Borrowed(_)),
                matches!(slow, std::borrow::Cow::Borrowed(_)),
                "corpus[{i}] Cow decision diverged at max_len {max_len}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 4e. Pinned sanitizer regressions (OSC, capacity, truncated escapes)
// ---------------------------------------------------------------------

/// Pinned regression: OSC sequences (`ESC ] … BEL`/`ST`) are swallowed
/// whole, exactly like CSI — previously their payload leaked through
/// with only the controls stripped.
#[test]
fn sanitize_swallows_osc_like_csi() {
    assert_eq!(sanitize("a\u{1b}]0;owned\u{7}b", 100), "ab");
    assert_eq!(sanitize("a\u{1b}]0;owned\u{1b}\\b", 100), "ab"); // ST
    assert_eq!(sanitize("a\u{1b}]no terminator", 100), "a");
    // A bare ESC inside the payload ends the OSC and is re-examined.
    assert_eq!(sanitize("a\u{1b}]x\u{1b}[31mz", 100), "az");
    // Still idempotent with OSC in play.
    let dirty = "pre\u{1b}]t\u{7}mid\u{1b}[0mpost";
    let once = sanitize(dirty, 100);
    assert_eq!(sanitize(&once, 100), once);
}

/// Pinned regression: the rebuild's scratch-capacity hint used
/// `max_len * 4`, which overflows in debug builds when callers pass
/// `usize::MAX`-ish bounds; it must saturate instead.
#[test]
fn sanitize_huge_max_len_does_not_overflow() {
    for max_len in [usize::MAX, usize::MAX / 4 + 1, usize::MAX / 2] {
        assert_eq!(sanitize("abc\u{1b}[31mdef", max_len), "abcdef");
        assert_eq!(
            fleetd::ingest::oracle::sanitize("abc\u{1b}[31mdef", max_len),
            "abcdef"
        );
    }
}

/// Pinned: a bare or truncated ESC is dropped alone and the next byte is
/// re-examined — it must not swallow what follows.
#[test]
fn sanitize_truncated_escape_tails_pinned() {
    assert_eq!(sanitize("\u{1b}", 100), "");
    assert_eq!(sanitize("\u{1b}A", 100), "A");
    assert_eq!(sanitize("abc\u{1b}", 100), "abc");
    assert_eq!(sanitize("abc\u{1b}Az", 100), "abcAz");
    assert_eq!(sanitize("\u{1b}\u{1b}A", 100), "A");
    assert_eq!(sanitize("abc\u{1b}[", 100), "abc");
}
