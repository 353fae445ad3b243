//! What the integration tests that check `GOLDEN_digests.txt` share:
//! the file, its format and the digest of a campaign's result.

/// The committed result digests, one `name value` line each.
pub const DIGESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN_digests.txt");

/// `0x` and sixteen hex digits in groups of four, as `GOLDEN_digests.txt`
/// writes them.
pub fn hex(v: u64) -> String {
    let digits = format!("{v:016x}");
    let groups: Vec<&str> = (0..4).map(|i| &digits[4 * i..4 * i + 4]).collect();
    format!("0x{}", groups.join("_"))
}

/// The `(name, value)` entries of `GOLDEN_digests.txt`; `#` lines are
/// comments.
fn digest_entries(text: &str) -> Vec<(&str, u64)> {
    (text.lines())
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let parsed = l.split_once(' ').and_then(|(name, v)| {
                let v = v.trim().strip_prefix("0x")?.replace('_', "");
                Some((name, u64::from_str_radix(&v, 16).ok()?))
            });
            parsed.unwrap_or_else(|| panic!("{DIGESTS}: malformed line `{l}`"))
        })
        .collect()
}

/// The value of the entry `name` of `GOLDEN_digests.txt` (`ctx` says
/// which run asks).
///
/// # Panics
///
/// Panics unless the file holds the entry exactly once.
pub fn pinned(name: &str, ctx: &str) -> u64 {
    let text = std::fs::read_to_string(DIGESTS).expect("read GOLDEN_digests.txt");
    let want: Vec<u64> = (digest_entries(&text).into_iter())
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .collect();
    match want[..] {
        [want] => want,
        [] => panic!("{ctx}: GOLDEN_digests.txt has no entry `{name}`"),
        _ => panic!("{ctx}: GOLDEN_digests.txt has entry `{name}` more than once"),
    }
}

/// FNV-1a over the canonical wire bytes of every record followed by
/// the merged telemetry export: one number that moves if any record
/// field, any counter, histogram bucket or trace event moves.
pub fn result_digest(r: &nestsim::core::CampaignResult) -> u64 {
    let mut w = nestsim::cluster::wire::Writer::new();
    for rec in &r.records {
        nestsim::cluster::wire::put_record(&mut w, rec).expect("record encodes");
    }
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(r.telemetry.to_jsonl().as_bytes());
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
