//! Persistent profile/compile snapshots with deterministic replay.
//!
//! A [`Snapshot`] serializes everything the VM learned during a run that is
//! worth carrying into the *next* run: the full [`incline_profile`] state
//! (hotness counters, block counts, callsite counts, receiver histograms —
//! including profiles merged back after deoptimizations) plus the
//! per-method **compile decision log** (tier, inline-plan hash, speculation
//! sites, in installation order). On the next run the snapshot is applied
//! in one of two [`ReplayMode`]s:
//!
//! * [`ReplayMode::Eager`] — the snapshot's method set is compiled up front
//!   **through the normal broker/ladder/cache-admission path**, so compile
//!   budgets, verification, admission control and fault injection all still
//!   apply. Warmup moves out of the measured iterations.
//! * [`ReplayMode::Seed`] — only the hotness counters are pre-warmed, so
//!   tiering triggers on the first invocation but every compile decision is
//!   re-derived from the (seeded) profiles.
//!
//! # Format
//!
//! Snapshots are versioned, dependency-free JSONL — the same hand-rolled
//! idiom as the [`incline_trace`] JSONL sinks. One header line, one line
//! per profiled method, one line per compile decision, and a trailing
//! checksum line (FNV-1a 64 over every preceding byte):
//!
//! ```text
//! {"snapshot":"incline","v":1,"fingerprint":"4af37...","methods":2,"decisions":1}
//! {"rec":"profile","method":3,"inv":120,"back":960,"blocks":[[0,120],[1,960]],"sites":[[0,960]],"recv":[[0,[[2,900],[5,60]]]]}
//! {"rec":"decision","method":3,"tier":"full","plan":"9e10c7...","spec":1}
//! {"rec":"end","crc":"77f0a..."}
//! ```
//!
//! Every map is sorted before serialization, so a snapshot of a
//! deterministic run is **byte-identical across `compile_threads`** — the
//! round-trip tests assert it. The header's `fingerprint` hashes the
//! printed program text; loading a snapshot against a different program
//! fails with [`SnapshotError::StaleProgram`]. Truncated, bit-flipped or
//! version-bumped snapshots fail parsing or the checksum — **never a
//! panic** — and the machine falls back to a cold start, counting the
//! event in [`SnapshotStats::fallbacks`].
//!
//! # I/O
//!
//! Snapshot bytes move through the [`SnapshotStore`] trait so the library
//! stays testable without touching disk: [`MemoryStore`] keeps bytes in a
//! mutex-guarded cell (share it via `Arc` between a writing and a reading
//! session), [`FileStore`] reads/writes one file. [`SnapshotIo`] is the
//! `Into`-friendly handle the builders accept, with conversions from
//! paths, raw bytes and `Arc`ed stores.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use incline_ir::{BlockId, ClassId, MethodId, Program, StructuralHasher};
use incline_profile::{MethodProfile, ProfileTable};

use crate::machine::CompileStage;

/// Current snapshot format version. Readers reject any other value.
pub const SNAPSHOT_VERSION: u64 = 1;

/// How a loaded snapshot is applied before the next run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplayMode {
    /// Compile the snapshot's method set up front through the normal
    /// broker/ladder/cache-admission path (budgets and verification still
    /// apply), in recorded decision order.
    #[default]
    Eager,
    /// Pre-warm the hotness counters only; tiering triggers immediately
    /// but every compile decision is re-derived.
    Seed,
}

impl ReplayMode {
    /// CLI/JSON label: `"eager"` or `"seed"`.
    pub fn label(self) -> &'static str {
        match self {
            ReplayMode::Eager => "eager",
            ReplayMode::Seed => "seed",
        }
    }
}

impl FromStr for ReplayMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "eager" => Ok(ReplayMode::Eager),
            "seed" => Ok(ReplayMode::Seed),
            other => Err(format!("unknown replay mode `{other}` (eager, seed)")),
        }
    }
}

/// Lifetime snapshot counters, reported via
/// [`CompilationReport`](crate::CompilationReport). Deterministic for a
/// given run setup, like the bailout and cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots successfully parsed, fingerprint-checked and applied.
    pub loaded: u64,
    /// Stale/corrupt/version-mismatched (or unreadable) snapshots that
    /// degraded gracefully to a cold start.
    pub fallbacks: u64,
    /// Methods compiled up front by eager replay (through the normal
    /// broker path; admission-deferred or blacklisted methods don't count).
    pub replayed_compiles: u64,
    /// Methods whose profile counters were pre-warmed by a loaded snapshot.
    pub seeded_methods: u64,
    /// Snapshots serialized and handed to a store.
    pub written: u64,
    /// Snapshot writes the store rejected (I/O errors degrade gracefully).
    pub write_failures: u64,
    /// Distinct replica snapshots folded into an applied N-way merge.
    pub merged: u64,
    /// Decisions the merge's support check dropped because the merged
    /// profile no longer justified them.
    pub aged_out: u64,
    /// Replayed decisions quarantined after deoptimizing within their
    /// first 8 compiled activations (excluded from the next
    /// `snapshot_out`).
    pub poisoned: u64,
}

/// The serialized profile of one method, maps sorted for determinism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodRecord {
    /// The profiled method.
    pub method: MethodId,
    /// Interpreted activations.
    pub invocations: u64,
    /// Taken loop back edges.
    pub backedges: u64,
    /// Per-block execution counts, sorted by block id.
    pub blocks: Vec<(BlockId, u64)>,
    /// Per-callsite execution counts, sorted by site index.
    pub callsites: Vec<(u32, u64)>,
    /// Receiver histograms per callsite, sorted by site index then class.
    pub receivers: Vec<(u32, Vec<(ClassId, u64)>)>,
}

/// One compile decision the broker took, recorded at install time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The installed method.
    pub method: MethodId,
    /// The ladder rung the surviving package came from.
    pub tier: CompileStage,
    /// FNV-1a 64 hash of the installed graph's printed text — a stable
    /// fingerprint of the inline plan the compile produced.
    pub plan_hash: u64,
    /// Speculative (deopt-guarded) typeswitch sites in the installed code.
    pub speculative_sites: u64,
}

/// A versioned, self-checksummed capture of profile state plus the compile
/// decision log. See the [module docs](self) for the format.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// FNV-1a 64 hash of the printed program this snapshot was taken from.
    pub fingerprint: u64,
    /// Per-method profiles, sorted by method id.
    pub methods: Vec<MethodRecord>,
    /// Compile decisions in installation order (a method recompiled after
    /// a deoptimization appears once per install).
    pub decisions: Vec<DecisionRecord>,
}

/// Why a snapshot could not be loaded (or a store could not move bytes).
/// Every variant degrades to a cold start when hit through the graceful
/// paths — none of them ever panics the VM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header's `v` field is not [`SNAPSHOT_VERSION`].
    VersionMismatch {
        /// The version the snapshot claims.
        found: u64,
    },
    /// The bytes do not parse as a well-formed snapshot (truncation,
    /// bit flips, wrong file).
    Corrupt(String),
    /// The trailing FNV-1a checksum does not match the preceding bytes.
    ChecksumMismatch,
    /// The snapshot was taken from a different program.
    StaleProgram {
        /// Fingerprint of the program being run.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The [`SnapshotStore`] could not read or write.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found } => {
                write!(
                    f,
                    "snapshot version {found} != supported {SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::StaleProgram { expected, found } => write!(
                f,
                "stale snapshot: program fingerprint {found:016x} != {expected:016x}"
            ),
            SnapshotError::Io(why) => write!(f, "snapshot i/o: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- fingerprint & hashing -------------------------------------------------

/// FNV-1a 64 over a byte slice — the workspace's stock digest, computed
/// by the one [`StructuralHasher`] (the server report's answer digests and
/// graph fingerprints use it too).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = StructuralHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Fingerprints a program by hashing its printed text: any change to a
/// method body, signature or class layout changes the fingerprint, so a
/// snapshot can never seed profiles into the wrong program.
pub fn fingerprint(program: &Program) -> u64 {
    fnv1a(incline_ir::print::program_str(program).as_bytes())
}

// ---- capture ---------------------------------------------------------------

impl MethodRecord {
    fn capture(method: MethodId, p: &MethodProfile) -> Self {
        let mut blocks: Vec<(BlockId, u64)> =
            p.block_counts.iter().map(|(&b, &c)| (b, c)).collect();
        blocks.sort();
        let mut callsites: Vec<(u32, u64)> =
            p.callsite_counts.iter().map(|(&s, &c)| (s, c)).collect();
        callsites.sort();
        let mut receivers: Vec<(u32, Vec<(ClassId, u64)>)> = p
            .receivers
            .iter()
            .map(|(&site, hist)| {
                let mut h: Vec<(ClassId, u64)> = hist.iter().map(|(&cl, &c)| (cl, c)).collect();
                h.sort();
                (site, h)
            })
            .collect();
        receivers.sort_by_key(|&(site, _)| site);
        MethodRecord {
            method,
            invocations: p.invocations,
            backedges: p.backedges,
            blocks,
            callsites,
            receivers,
        }
    }

    fn to_profile(&self) -> MethodProfile {
        MethodProfile {
            invocations: self.invocations,
            backedges: self.backedges,
            block_counts: self.blocks.iter().copied().collect(),
            callsite_counts: self.callsites.iter().copied().collect(),
            receivers: self
                .receivers
                .iter()
                .map(|(site, hist)| {
                    let h: HashMap<ClassId, u64> = hist.iter().copied().collect();
                    (*site, h)
                })
                .collect(),
        }
    }
}

impl Snapshot {
    /// Captures profiles and the decision log under `fingerprint`, sorting
    /// every map so the result is deterministic.
    pub fn capture(
        fingerprint: u64,
        profiles: &ProfileTable,
        decisions: &[DecisionRecord],
    ) -> Snapshot {
        let mut methods: Vec<MethodRecord> = profiles
            .iter()
            .map(|(m, p)| MethodRecord::capture(m, p))
            .collect();
        methods.sort_by_key(|r| r.method);
        Snapshot {
            fingerprint,
            methods,
            decisions: decisions.to_vec(),
        }
    }

    /// Rebuilds a [`ProfileTable`] from the serialized per-method records.
    pub fn profile_table(&self) -> ProfileTable {
        let mut t = ProfileTable::new();
        for r in &self.methods {
            t.insert(r.method, r.to_profile());
        }
        t
    }

    // ---- serialization -----------------------------------------------------

    /// Serializes to the versioned JSONL format, byte-deterministic for a
    /// given snapshot value.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.methods.len() * 128);
        let _ = writeln!(
            out,
            "{{\"snapshot\":\"incline\",\"v\":{SNAPSHOT_VERSION},\"fingerprint\":\"{:016x}\",\
             \"methods\":{},\"decisions\":{}}}",
            self.fingerprint,
            self.methods.len(),
            self.decisions.len()
        );
        for r in &self.methods {
            let _ = write!(
                out,
                "{{\"rec\":\"profile\",\"method\":{},\"inv\":{},\"back\":{},\"blocks\":[",
                r.method.index(),
                r.invocations,
                r.backedges
            );
            for (i, (b, c)) in r.blocks.iter().enumerate() {
                let _ = write!(out, "{}[{},{c}]", if i > 0 { "," } else { "" }, b.index());
            }
            out.push_str("],\"sites\":[");
            for (i, (s, c)) in r.callsites.iter().enumerate() {
                let _ = write!(out, "{}[{s},{c}]", if i > 0 { "," } else { "" });
            }
            out.push_str("],\"recv\":[");
            for (i, (site, hist)) in r.receivers.iter().enumerate() {
                let _ = write!(out, "{}[{site},[", if i > 0 { "," } else { "" });
                for (j, (cl, c)) in hist.iter().enumerate() {
                    let _ = write!(out, "{}[{},{c}]", if j > 0 { "," } else { "" }, cl.index());
                }
                out.push_str("]]");
            }
            out.push_str("]}\n");
        }
        for d in &self.decisions {
            let _ = writeln!(
                out,
                "{{\"rec\":\"decision\",\"method\":{},\"tier\":\"{}\",\"plan\":\"{:016x}\",\
                 \"spec\":{}}}",
                d.method.index(),
                d.tier,
                d.plan_hash,
                d.speculative_sites
            );
        }
        let crc = fnv1a(out.as_bytes());
        let _ = writeln!(out, "{{\"rec\":\"end\",\"crc\":\"{crc:016x}\"}}");
        out.into_bytes()
    }

    /// Parses and checksums snapshot bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on any malformed byte,
    /// [`SnapshotError::VersionMismatch`] on an unsupported header version,
    /// [`SnapshotError::ChecksumMismatch`] when the trailing CRC does not
    /// cover the preceding bytes (truncation, bit flips).
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotError::Corrupt("not utf-8".to_string()))?;
        // Locate the checksum line and verify it covers everything before it.
        let body_end = text
            .rfind("{\"rec\":\"end\"")
            .ok_or_else(|| SnapshotError::Corrupt("missing end record".to_string()))?;
        let (body, end_line) = text.split_at(body_end);
        let end = parse::object(end_line.trim_end())
            .map_err(|e| SnapshotError::Corrupt(format!("end record: {e}")))?;
        let crc = end
            .hex("crc")
            .ok_or_else(|| SnapshotError::Corrupt("end record lacks crc".to_string()))?;
        if crc != fnv1a(body.as_bytes()) {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut lines = body.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| SnapshotError::Corrupt("empty snapshot".to_string()))?;
        let header = parse::object(header_line)
            .map_err(|e| SnapshotError::Corrupt(format!("header: {e}")))?;
        if header.str("snapshot") != Some("incline") {
            return Err(SnapshotError::Corrupt(
                "not an incline snapshot".to_string(),
            ));
        }
        let version = header
            .num("v")
            .ok_or_else(|| SnapshotError::Corrupt("header lacks version".to_string()))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let fingerprint = header
            .hex("fingerprint")
            .ok_or_else(|| SnapshotError::Corrupt("header lacks fingerprint".to_string()))?;
        let want_methods = header.num("methods").unwrap_or(0) as usize;
        let want_decisions = header.num("decisions").unwrap_or(0) as usize;

        let mut methods = Vec::with_capacity(want_methods);
        let mut decisions = Vec::with_capacity(want_decisions);
        for (i, line) in lines.enumerate() {
            let obj = parse::object(line)
                .map_err(|e| SnapshotError::Corrupt(format!("record {i}: {e}")))?;
            match obj.str("rec") {
                Some("profile") => methods.push(parse_method(&obj, i)?),
                Some("decision") => decisions.push(parse_decision(&obj, i)?),
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "record {i}: unknown kind {other:?}"
                    )))
                }
            }
        }
        if methods.len() != want_methods || decisions.len() != want_decisions {
            return Err(SnapshotError::Corrupt(format!(
                "header promised {want_methods} profiles + {want_decisions} decisions, \
                 found {} + {}",
                methods.len(),
                decisions.len()
            )));
        }
        Ok(Snapshot {
            fingerprint,
            methods,
            decisions,
        })
    }

    /// The set of methods the decision log covers, first-appearance order —
    /// the set eager replay compiles up front.
    pub fn decided_methods(&self) -> Vec<MethodId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for d in &self.decisions {
            if seen.insert(d.method) {
                out.push(d.method);
            }
        }
        out
    }
}

// ---- N-way replica merge ---------------------------------------------------

/// Tuning knobs of [`Snapshot::merge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergePolicy {
    /// The support bar of the `DecisionAge` check: a voted-in decision
    /// survives only while its method's hotness (invocations + back edges)
    /// in the *merged* profile is at least this. The machine's merge path
    /// uses its own `hotness_threshold` here, so a decision is kept exactly
    /// as long as the merged evidence would still tier the method up.
    pub min_support: u64,
}

impl Default for MergePolicy {
    fn default() -> Self {
        MergePolicy { min_support: 1 }
    }
}

impl MergePolicy {
    /// A policy with an explicit support bar.
    pub fn with_support(min_support: u64) -> Self {
        MergePolicy { min_support }
    }
}

/// Counters describing one N-way merge, carried in [`Merged`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Distinct replicas that contributed (after deduplication).
    pub replicas: u64,
    /// Byte-identical replica inputs dropped by deduplication.
    pub duplicates: u64,
    /// Method profiles in the merged snapshot.
    pub methods: u64,
    /// Decisions that survived the vote and the support check.
    pub decisions: u64,
    /// Methods on which replicas cast ballots for different decisions.
    pub conflicts: u64,
    /// Decisions dropped by the support check.
    pub aged_out: u64,
}

/// The result of [`Snapshot::merge`]: the merged snapshot plus everything
/// an observer needs (counters and the aged-out decision list).
#[derive(Clone, Debug, PartialEq)]
pub struct Merged {
    /// The merged, deterministic snapshot (decisions sorted by method).
    pub snapshot: Snapshot,
    /// Merge counters.
    pub stats: MergeStats,
    /// Decisions dropped by the support check, with the merged hotness
    /// that failed the bar — in method order.
    pub aged_out: Vec<(DecisionRecord, u64)>,
    /// The support bar the aged-out decisions failed to meet.
    pub min_support: u64,
}

fn tier_rank(tier: CompileStage) -> u8 {
    match tier {
        CompileStage::Full => 0,
        CompileStage::Degraded => 1,
    }
}

impl Snapshot {
    /// Merges N replica snapshots of the *same program* into one:
    ///
    /// * **profiles** — the union of every replica's histograms with
    ///   weighted (summed) counts, via [`ProfileTable::merge`];
    /// * **decisions** — one ballot per replica per method (a replica's
    ///   *last* recorded decision for that method); the candidate with the
    ///   most ballots wins, ties broken by the total observed hotness of
    ///   the replicas backing each candidate, then by the smallest
    ///   `(tier, plan, spec)` key so the result is a pure function of the
    ///   input *set*;
    /// * **support check** — a winning decision is dropped (aged out) when
    ///   the merged profile's hotness for its method falls below
    ///   [`MergePolicy::min_support`].
    ///
    /// Byte-identical replica inputs are deduplicated first, so at-least-
    /// once snapshot delivery cannot double-weigh a replica's traffic —
    /// this is what makes the merge idempotent. The output's methods and
    /// decisions are sorted by method id, so any permutation of the same
    /// replica set serializes to byte-identical output.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on an empty replica list and
    /// [`SnapshotError::StaleProgram`] when the replicas disagree on the
    /// program fingerprint — callers that merge best-effort should filter
    /// foreign replicas out first (the machine's merge path does).
    pub fn merge(replicas: &[Snapshot], policy: &MergePolicy) -> Result<Merged, SnapshotError> {
        let first = replicas
            .first()
            .ok_or_else(|| SnapshotError::Corrupt("merge of zero replicas".to_string()))?;
        let fingerprint = first.fingerprint;
        for r in replicas {
            if r.fingerprint != fingerprint {
                return Err(SnapshotError::StaleProgram {
                    expected: fingerprint,
                    found: r.fingerprint,
                });
            }
        }
        // Deduplicate byte-identical replicas: redelivered snapshots must
        // not double-count their observations.
        let mut seen = BTreeSet::new();
        let mut uniq: Vec<&Snapshot> = Vec::with_capacity(replicas.len());
        for r in replicas {
            if seen.insert(fnv1a(&r.to_bytes())) {
                uniq.push(r);
            }
        }
        let duplicates = (replicas.len() - uniq.len()) as u64;

        // Union of the profile histograms, weighted by raw counts.
        let mut table = ProfileTable::new();
        for r in &uniq {
            table.merge(&r.profile_table());
        }

        // One ballot per replica per method: its last recorded decision.
        // Candidates are keyed by decision content; each accumulates its
        // ballot count and the total hotness of the replicas backing it.
        type CandKey = (u8, u64, u64);
        let mut ballots: BTreeMap<MethodId, BTreeMap<CandKey, (u64, u64)>> = BTreeMap::new();
        for r in &uniq {
            let mut last: BTreeMap<MethodId, &DecisionRecord> = BTreeMap::new();
            for d in &r.decisions {
                last.insert(d.method, d);
            }
            for (m, d) in last {
                let hot = r
                    .methods
                    .binary_search_by_key(&m, |rec| rec.method)
                    .ok()
                    .map_or(0, |i| {
                        r.methods[i]
                            .invocations
                            .saturating_add(r.methods[i].backedges)
                    });
                let key = (tier_rank(d.tier), d.plan_hash, d.speculative_sites);
                let slot = ballots.entry(m).or_default().entry(key).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += hot;
            }
        }

        let mut decisions = Vec::new();
        let mut aged_out = Vec::new();
        let mut conflicts = 0u64;
        for (&m, cands) in &ballots {
            if cands.len() > 1 {
                conflicts += 1;
            }
            let (&(tier, plan_hash, speculative_sites), _) = cands
                .iter()
                .max_by(|(ka, (va, ha)), (kb, (vb, hb))| {
                    va.cmp(vb).then(ha.cmp(hb)).then(kb.cmp(ka))
                })
                .expect("ballot map is non-empty");
            let rec = DecisionRecord {
                method: m,
                tier: match tier {
                    0 => CompileStage::Full,
                    _ => CompileStage::Degraded,
                },
                plan_hash,
                speculative_sites,
            };
            let hotness = table.hotness(m);
            if hotness < policy.min_support {
                aged_out.push((rec, hotness));
            } else {
                decisions.push(rec);
            }
        }

        let snapshot = Snapshot::capture(fingerprint, &table, &decisions);
        let stats = MergeStats {
            replicas: uniq.len() as u64,
            duplicates,
            methods: snapshot.methods.len() as u64,
            decisions: snapshot.decisions.len() as u64,
            conflicts,
            aged_out: aged_out.len() as u64,
        };
        Ok(Merged {
            snapshot,
            stats,
            aged_out,
            min_support: policy.min_support,
        })
    }
}

fn corrupt(i: usize, why: &str) -> SnapshotError {
    SnapshotError::Corrupt(format!("record {i}: {why}"))
}

fn parse_method(obj: &parse::Obj, i: usize) -> Result<MethodRecord, SnapshotError> {
    let method = MethodId::new(obj.num("method").ok_or_else(|| corrupt(i, "method"))? as usize);
    let blocks = obj
        .pairs("blocks")
        .ok_or_else(|| corrupt(i, "blocks"))?
        .into_iter()
        .map(|(b, c)| (BlockId::new(b as usize), c))
        .collect();
    let callsites = obj
        .pairs("sites")
        .ok_or_else(|| corrupt(i, "sites"))?
        .into_iter()
        .map(|(s, c)| (s as u32, c))
        .collect();
    let receivers = obj
        .nested_pairs("recv")
        .ok_or_else(|| corrupt(i, "recv"))?
        .into_iter()
        .map(|(site, hist)| {
            let h: Vec<(ClassId, u64)> = hist
                .into_iter()
                .map(|(cl, c)| (ClassId::new(cl as usize), c))
                .collect();
            (site as u32, h)
        })
        .collect();
    Ok(MethodRecord {
        method,
        invocations: obj.num("inv").ok_or_else(|| corrupt(i, "inv"))?,
        backedges: obj.num("back").ok_or_else(|| corrupt(i, "back"))?,
        blocks,
        callsites,
        receivers,
    })
}

fn parse_decision(obj: &parse::Obj, i: usize) -> Result<DecisionRecord, SnapshotError> {
    let tier = match obj.str("tier") {
        Some("full") => CompileStage::Full,
        Some("degraded") => CompileStage::Degraded,
        other => return Err(corrupt(i, &format!("tier {other:?}"))),
    };
    Ok(DecisionRecord {
        method: MethodId::new(obj.num("method").ok_or_else(|| corrupt(i, "method"))? as usize),
        tier,
        plan_hash: obj.hex("plan").ok_or_else(|| corrupt(i, "plan"))?,
        speculative_sites: obj.num("spec").ok_or_else(|| corrupt(i, "spec"))?,
    })
}

// ---- minimal JSON parsing --------------------------------------------------

/// Just enough JSON to read the snapshot's own output: flat objects whose
/// values are unsigned integers, strings, or (nested) arrays of unsigned
/// integers. Strict — anything else is an error, which is exactly what the
/// corruption tests want.
mod parse {
    /// One parsed value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Val {
        /// An unsigned integer.
        Num(u64),
        /// A string (no escapes needed by the snapshot format).
        Str(String),
        /// An array of values.
        Arr(Vec<Val>),
    }

    /// A parsed flat object: ordered `(key, value)` pairs.
    #[derive(Clone, Debug, Default)]
    pub struct Obj {
        fields: Vec<(String, Val)>,
    }

    impl Obj {
        fn get(&self, key: &str) -> Option<&Val> {
            self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        pub fn num(&self, key: &str) -> Option<u64> {
            match self.get(key)? {
                Val::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn str(&self, key: &str) -> Option<&str> {
            match self.get(key)? {
                Val::Str(s) => Some(s),
                _ => None,
            }
        }

        /// A 16-digit lowercase hex string field.
        pub fn hex(&self, key: &str) -> Option<u64> {
            u64::from_str_radix(self.str(key)?, 16).ok()
        }

        /// `[[a,b],...]` — an array of integer pairs.
        pub fn pairs(&self, key: &str) -> Option<Vec<(u64, u64)>> {
            match self.get(key)? {
                Val::Arr(items) => items.iter().map(pair).collect(),
                _ => None,
            }
        }

        /// `[[k,[[a,b],...]],...]` — pairs whose second element is itself a
        /// pair list (receiver histograms).
        pub fn nested_pairs(&self, key: &str) -> Option<NestedPairs> {
            let Val::Arr(items) = self.get(key)? else {
                return None;
            };
            items
                .iter()
                .map(|item| {
                    let Val::Arr(kv) = item else { return None };
                    let [Val::Num(k), Val::Arr(hist)] = kv.as_slice() else {
                        return None;
                    };
                    let h: Option<Vec<(u64, u64)>> = hist.iter().map(pair).collect();
                    Some((*k, h?))
                })
                .collect()
        }
    }

    /// Keys paired with `[(a, b), ...]` lists, as read by
    /// [`Obj::nested_pairs`].
    pub type NestedPairs = Vec<(u64, Vec<(u64, u64)>)>;

    fn pair(v: &Val) -> Option<(u64, u64)> {
        let Val::Arr(kv) = v else { return None };
        let [Val::Num(a), Val::Num(b)] = kv.as_slice() else {
            return None;
        };
        Some((*a, *b))
    }

    /// Parses one line as a flat JSON object.
    pub fn object(line: &str) -> Result<Obj, String> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            pos: 0,
        };
        let obj = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(obj)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            self.skip_ws();
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected `{}` at {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn object(&mut self) -> Result<Obj, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Obj { fields });
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Obj { fields });
                    }
                    other => return Err(format!("expected `,` or `}}`, found {other:?}")),
                }
            }
        }

        fn value(&mut self) -> Result<Val, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'"') => Ok(Val::Str(self.string()?)),
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Val::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Val::Arr(items));
                            }
                            other => return Err(format!("expected `,` or `]`, found {other:?}")),
                        }
                    }
                }
                Some(b'0'..=b'9') => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .map(Val::Num)
                        .ok_or_else(|| format!("bad number at {start}"))
                }
                other => Err(format!("unexpected value start {other:?}")),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "bad utf-8 in string".to_string())?;
                    self.pos += 1;
                    return Ok(s.to_string());
                }
                if b == b'\\' {
                    return Err("escapes are not part of the snapshot format".to_string());
                }
                self.pos += 1;
            }
            Err("unterminated string".to_string())
        }
    }
}

// ---- stores ----------------------------------------------------------------

/// Moves snapshot bytes in and out of some backing medium. The trait is
/// deliberately byte-oriented: parsing, versioning and checksum policy stay
/// in [`Snapshot`], so every store is trivially correct.
pub trait SnapshotStore: Send + Sync {
    /// Reads the stored snapshot bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when nothing is stored or the read fails.
    fn read(&self) -> Result<Vec<u8>, SnapshotError>;

    /// Stores snapshot bytes, replacing any previous content.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the write fails.
    fn write(&self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// In-memory [`SnapshotStore`]: a mutex-guarded cell, shared via `Arc`
/// between the session that writes and the session that replays — the
/// no-disk path the library tests use.
#[derive(Debug, Default)]
pub struct MemoryStore {
    cell: Mutex<Option<Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// A store pre-loaded with `bytes` (the `snapshot_in(bytes)` path).
    pub fn with_bytes(bytes: Vec<u8>) -> Self {
        MemoryStore {
            cell: Mutex::new(Some(bytes)),
        }
    }

    /// The currently stored bytes, if any.
    pub fn bytes(&self) -> Option<Vec<u8>> {
        self.cell.lock().expect("snapshot store poisoned").clone()
    }
}

impl SnapshotStore for MemoryStore {
    fn read(&self) -> Result<Vec<u8>, SnapshotError> {
        self.bytes()
            .ok_or_else(|| SnapshotError::Io("memory store is empty".to_string()))
    }

    fn write(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        *self.cell.lock().expect("snapshot store poisoned") = Some(bytes.to_vec());
        Ok(())
    }
}

/// File-backed [`SnapshotStore`]: one snapshot per path.
#[derive(Clone, Debug)]
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// A store reading/writing `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileStore { path: path.into() }
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl FileStore {
    /// The sibling temp path writes land on before the atomic rename.
    fn tmp_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    }

    fn io_err(&self, e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(format!("{}: {e}", self.path.display()))
    }
}

impl SnapshotStore for FileStore {
    fn read(&self) -> Result<Vec<u8>, SnapshotError> {
        std::fs::read(&self.path).map_err(|e| self.io_err(e))
    }

    /// Atomic write: the bytes land on `<path>.tmp`, are fsynced, and only
    /// then renamed over `path` — a crash mid-write leaves the previous
    /// snapshot intact instead of a torn tail that would fail its checksum.
    fn write(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        use std::io::Write as _;
        let tmp = self.tmp_path();
        let result = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, &self.path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(|e| self.io_err(e))
    }
}

/// The `Into`-friendly store handle the session builders accept:
/// `session.snapshot_in("warm.snap")`, `.snapshot_in(bytes)`, or
/// `.snapshot_out(Arc::new(MemoryStore::new()))` all convert here.
#[derive(Clone)]
pub struct SnapshotIo {
    store: Arc<dyn SnapshotStore>,
}

impl SnapshotIo {
    /// Wraps an arbitrary store.
    pub fn new(store: Arc<dyn SnapshotStore>) -> Self {
        SnapshotIo { store }
    }

    /// The wrapped store.
    pub fn store(&self) -> &dyn SnapshotStore {
        &*self.store
    }
}

impl std::fmt::Debug for SnapshotIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SnapshotIo(..)")
    }
}

impl From<Arc<dyn SnapshotStore>> for SnapshotIo {
    fn from(store: Arc<dyn SnapshotStore>) -> Self {
        SnapshotIo { store }
    }
}

impl From<Arc<MemoryStore>> for SnapshotIo {
    fn from(store: Arc<MemoryStore>) -> Self {
        SnapshotIo { store }
    }
}

impl From<Arc<FileStore>> for SnapshotIo {
    fn from(store: Arc<FileStore>) -> Self {
        SnapshotIo { store }
    }
}

impl From<&str> for SnapshotIo {
    fn from(path: &str) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<String> for SnapshotIo {
    fn from(path: String) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<&Path> for SnapshotIo {
    fn from(path: &Path) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<PathBuf> for SnapshotIo {
    fn from(path: PathBuf) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<Vec<u8>> for SnapshotIo {
    fn from(bytes: Vec<u8>) -> Self {
        SnapshotIo {
            store: Arc::new(MemoryStore::with_bytes(bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut profiles = ProfileTable::new();
        let m = MethodId::new(3);
        for _ in 0..7 {
            profiles.record_invocation(m);
        }
        profiles.record_backedge(m);
        profiles.record_block(m, BlockId::new(0));
        profiles.record_block(m, BlockId::new(2));
        let site = incline_ir::CallSiteId {
            method: m,
            index: 1,
        };
        profiles.record_callsite(site);
        profiles.record_receiver(site, ClassId::new(4));
        profiles.record_receiver(site, ClassId::new(2));
        let decisions = vec![DecisionRecord {
            method: m,
            tier: CompileStage::Full,
            plan_hash: 0xdead_beef,
            speculative_sites: 1,
        }];
        Snapshot::capture(0x1234_5678_9abc_def0, &profiles, &decisions)
    }

    #[test]
    fn round_trips_byte_identically() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes, "serialize∘parse must be identity");
    }

    #[test]
    fn profile_table_round_trips() {
        let snap = sample();
        let table = snap.profile_table();
        let m = MethodId::new(3);
        assert_eq!(table.invocations(m), 7);
        assert_eq!(table.backedges(m), 1);
        let again = Snapshot::capture(snap.fingerprint, &table, &snap.decisions);
        assert_eq!(again, snap);
    }

    #[test]
    fn truncation_and_bitflips_are_corrupt_not_panics() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 2] {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        for flip in [8, bytes.len() / 3, bytes.len() / 2] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x20;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "bit flip at {flip} must fail"
            );
        }
    }

    #[test]
    fn version_bump_is_rejected_as_version_mismatch() {
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        let bumped = text.replacen("\"v\":1,", "\"v\":2,", 1);
        // Re-checksum so only the version differs.
        let body_end = bumped.rfind("{\"rec\":\"end\"").unwrap();
        let body = &bumped[..body_end];
        let fixed = format!(
            "{body}{{\"rec\":\"end\",\"crc\":\"{:016x}\"}}\n",
            fnv1a(body.as_bytes())
        );
        assert_eq!(
            Snapshot::from_bytes(fixed.as_bytes()),
            Err(SnapshotError::VersionMismatch { found: 2 })
        );
    }

    #[test]
    fn memory_store_round_trips_and_reports_empty() {
        let store = MemoryStore::new();
        assert!(matches!(store.read(), Err(SnapshotError::Io(_))));
        store.write(b"abc").unwrap();
        assert_eq!(store.read().unwrap(), b"abc");
    }

    #[test]
    fn file_store_round_trips() {
        let path = std::env::temp_dir().join("incline-snapshot-store-test.snap");
        let store = FileStore::new(&path);
        store.write(b"xyz").unwrap();
        assert_eq!(store.read().unwrap(), b"xyz");
        let _ = std::fs::remove_file(&path);
    }

    /// A replica with one method profile (`inv` invocations) and one
    /// full-tier decision for it with the given plan hash.
    fn replica(m: usize, inv: u64, plan: u64) -> Snapshot {
        let mut profiles = ProfileTable::new();
        let method = MethodId::new(m);
        for _ in 0..inv {
            profiles.record_invocation(method);
        }
        let decisions = vec![DecisionRecord {
            method,
            tier: CompileStage::Full,
            plan_hash: plan,
            speculative_sites: 0,
        }];
        Snapshot::capture(0xfeed, &profiles, &decisions)
    }

    #[test]
    fn merge_unions_profiles_and_is_order_independent() {
        let a = replica(1, 10, 0xaa);
        let b = replica(2, 5, 0xbb);
        let c = replica(1, 3, 0xaa);
        let fwd =
            Snapshot::merge(&[a.clone(), b.clone(), c.clone()], &MergePolicy::default()).unwrap();
        let rev = Snapshot::merge(&[c, b, a], &MergePolicy::default()).unwrap();
        assert_eq!(fwd.snapshot.to_bytes(), rev.snapshot.to_bytes());
        assert_eq!(fwd.stats, rev.stats);
        let table = fwd.snapshot.profile_table();
        assert_eq!(table.invocations(MethodId::new(1)), 13, "counts sum");
        assert_eq!(table.invocations(MethodId::new(2)), 5);
        assert_eq!(fwd.snapshot.decisions.len(), 2);
        assert_eq!(fwd.stats.conflicts, 0);
    }

    #[test]
    fn merge_majority_vote_wins_and_ties_break_by_hotness() {
        // Two replicas vote plan 0xaa, one hotter replica votes 0xbb:
        // majority wins despite lower hotness.
        let out = Snapshot::merge(
            &[
                replica(1, 2, 0xaa),
                replica(1, 3, 0xaa),
                replica(1, 90, 0xbb),
            ],
            &MergePolicy::default(),
        )
        .unwrap();
        assert_eq!(out.snapshot.decisions[0].plan_hash, 0xaa);
        assert_eq!(out.stats.conflicts, 1);
        // One ballot each: the hotter replica's candidate wins the tie.
        let out = Snapshot::merge(
            &[replica(1, 2, 0xaa), replica(1, 90, 0xbb)],
            &MergePolicy::default(),
        )
        .unwrap();
        assert_eq!(out.snapshot.decisions[0].plan_hash, 0xbb);
        // Equal votes and equal hotness: smallest candidate key wins, so
        // the result is still a pure function of the input set.
        let out = Snapshot::merge(
            &[replica(1, 5, 0xbb), replica(1, 5, 0xaa)],
            &MergePolicy::default(),
        )
        .unwrap();
        assert_eq!(out.snapshot.decisions[0].plan_hash, 0xaa);
    }

    #[test]
    fn merge_dedups_identical_replicas() {
        let a = replica(1, 10, 0xaa);
        let once = Snapshot::merge(std::slice::from_ref(&a), &MergePolicy::default()).unwrap();
        let thrice = Snapshot::merge(&[a.clone(), a.clone(), a], &MergePolicy::default()).unwrap();
        assert_eq!(once.snapshot.to_bytes(), thrice.snapshot.to_bytes());
        assert_eq!(thrice.stats.duplicates, 2);
        assert_eq!(thrice.stats.replicas, 1);
        assert_eq!(
            once.snapshot.profile_table().invocations(MethodId::new(1)),
            10,
            "redelivery must not double-count"
        );
    }

    #[test]
    fn merge_support_check_ages_out_cold_decisions() {
        let out = Snapshot::merge(
            &[replica(1, 3, 0xaa), replica(2, 50, 0xbb)],
            &MergePolicy::with_support(10),
        )
        .unwrap();
        assert_eq!(out.snapshot.decisions.len(), 1);
        assert_eq!(out.snapshot.decisions[0].method, MethodId::new(2));
        assert_eq!(out.stats.aged_out, 1);
        assert_eq!(out.aged_out.len(), 1);
        assert_eq!(out.aged_out[0].0.method, MethodId::new(1));
        assert_eq!(out.aged_out[0].1, 3);
        // The aged-out method's *profile* survives — only the decision is
        // dropped, so the next run re-derives it from fresh evidence.
        assert_eq!(
            out.snapshot.profile_table().invocations(MethodId::new(1)),
            3
        );
    }

    #[test]
    fn merge_rejects_empty_and_mixed_fingerprints() {
        assert!(matches!(
            Snapshot::merge(&[], &MergePolicy::default()),
            Err(SnapshotError::Corrupt(_))
        ));
        let a = replica(1, 5, 0xaa);
        let mut b = replica(1, 5, 0xaa);
        b.fingerprint = 0xbeef;
        assert!(matches!(
            Snapshot::merge(&[a, b], &MergePolicy::default()),
            Err(SnapshotError::StaleProgram { .. })
        ));
    }

    #[test]
    fn file_store_write_is_atomic_and_leaves_no_tmp() {
        let path = std::env::temp_dir().join("incline-snapshot-atomic-test.snap");
        let store = FileStore::new(&path);
        store.write(b"first").unwrap();
        store.write(b"second").unwrap();
        assert_eq!(store.read().unwrap(), b"second");
        assert!(
            !store.tmp_path().exists(),
            "tmp file must be renamed away on success"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_store_write_failure_cleans_tmp_and_keeps_old_snapshot() {
        // A directory at the target path makes the rename fail after the
        // tmp write succeeded — the tmp file must still be cleaned up.
        let dir = std::env::temp_dir().join("incline-snapshot-atomic-dir-test.snap");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileStore::new(&dir);
        assert!(matches!(store.write(b"nope"), Err(SnapshotError::Io(_))));
        assert!(!store.tmp_path().exists(), "failed write must clean up tmp");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_mode_labels_parse() {
        assert_eq!("eager".parse::<ReplayMode>().unwrap(), ReplayMode::Eager);
        assert_eq!("seed".parse::<ReplayMode>().unwrap(), ReplayMode::Seed);
        assert!("hot".parse::<ReplayMode>().is_err());
        assert_eq!(ReplayMode::default(), ReplayMode::Eager);
    }
}
