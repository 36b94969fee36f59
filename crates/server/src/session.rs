//! Deterministic session record/replay.
//!
//! A recorded session is the daemon's *accepted input* (every batch that
//! made it into a tenant pipeline, post-dedup) plus its *canonical
//! output* (each tenant's summary and incident lines). Because a
//! [`TenantPipeline`] is a pure function
//! of its ordered batches, `hydra replay-session` can re-run the
//! pipelines from the recorded input and regenerate the output — and the
//! regenerated file must equal the recorded file **byte for byte**.
//! Cross-tenant arrival interleaving is irrelevant by construction:
//! batches are grouped per tenant and ordered by sequence number, which
//! is exactly the order each shard consumed them.
//!
//! The on-disk format is line-based `key=value` (one record per line,
//! canonical ordering, trailing `end` sentinel) so a truncated or edited
//! file fails parsing loudly instead of replaying quietly wrong.

use hydra_types::MemGeometry;

use crate::frame::{valid_tenant_name, SERVE_SCHEMA_VERSION};
use crate::tenant::{TenantPipeline, TenantSummary};

/// One accepted batch, as consumed by a tenant pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedBatch {
    /// Tenant the batch belonged to.
    pub tenant: String,
    /// Batch sequence number (strictly increasing per tenant).
    pub seq: u64,
    /// Packed rows, in application order.
    pub rows: Vec<u64>,
}

/// A complete recorded session: configuration, accepted input, canonical
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Geometry name (`tiny` or `isca22`), resolvable by
    /// [`geometry_by_name`].
    pub geometry: String,
    /// Row-hammer threshold the daemon served with.
    pub t_rh: u32,
    /// Accepted batches, sorted by `(tenant, seq)`.
    pub batches: Vec<RecordedBatch>,
    /// Per-tenant outputs, sorted by tenant name.
    pub outputs: Vec<TenantSummary>,
}

/// Resolves the geometry names accepted on the `hydra serve` command
/// line and stored in session files.
pub fn geometry_by_name(name: &str) -> Option<MemGeometry> {
    match name {
        "tiny" => Some(MemGeometry::tiny()),
        "isca22" => Some(MemGeometry::isca22_baseline()),
        _ => None,
    }
}

impl Session {
    /// Canonicalizes: sorts batches by `(tenant, seq)` and outputs by
    /// tenant name. Called by the daemon before rendering.
    pub fn normalize(&mut self) {
        self.batches
            .sort_by(|a, b| a.tenant.cmp(&b.tenant).then(a.seq.cmp(&b.seq)));
        self.outputs.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    }

    /// Renders the canonical session text. `parse` ∘ `to_text` is the
    /// identity on normalized sessions, and replaying a session renders
    /// the same bytes again — both properties are under test.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("schema={SERVE_SCHEMA_VERSION}\n"));
        out.push_str(&format!("geometry={} t_rh={}\n", self.geometry, self.t_rh));
        for batch in &self.batches {
            let rows: Vec<String> = batch.rows.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!(
                "batch tenant={} seq={} rows={}\n",
                batch.tenant,
                batch.seq,
                rows.join(",")
            ));
        }
        for summary in &self.outputs {
            out.push_str(&format!(
                "output tenant={} digest={:016x}\n",
                summary.tenant,
                summary.digest()
            ));
            for line in summary.canon_text().lines() {
                out.push_str("| ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses a recorded session, validating the schema line, tenant
    /// names, digests, and the `end` sentinel.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered description of the first malformed line,
    /// a digest mismatch (file edited or corrupted), or a missing
    /// sentinel (file truncated).
    pub fn parse(text: &str) -> Result<Session, String> {
        let mut lines = text.lines().enumerate();
        let (_, schema_line) = lines.next().ok_or("empty session file")?;
        let schema = schema_line
            .strip_prefix("schema=")
            .ok_or("line 1: expected schema=...")?;
        if schema != SERVE_SCHEMA_VERSION {
            return Err(format!("unsupported session schema {schema:?}"));
        }
        let (_, meta) = lines.next().ok_or("missing meta line")?;
        let meta_kv = parse_kv(meta)?;
        let geometry = meta_kv
            .iter()
            .find(|(k, _)| *k == "geometry")
            .map(|(_, v)| v.to_string())
            .ok_or("line 2: missing geometry=")?;
        geometry_by_name(&geometry).ok_or_else(|| format!("unknown geometry {geometry:?}"))?;
        let t_rh: u32 = lookup(&meta_kv, "t_rh")?
            .parse()
            .map_err(|_| "line 2: bad t_rh".to_string())?;

        let mut batches = Vec::new();
        let mut outputs: Vec<TenantSummary> = Vec::new();
        let mut open: Option<(String, u64, Vec<String>)> = None; // tenant, digest, canon lines
        let mut saw_end = false;
        for (idx, line) in lines {
            let lineno = idx + 1;
            if let Some(rest) = line.strip_prefix("| ") {
                let (_, _, canon) = open
                    .as_mut()
                    .ok_or_else(|| format!("line {lineno}: output body outside a section"))?;
                canon.push(rest.to_string());
                continue;
            }
            if let Some(section) = open.take() {
                outputs.push(close_output(section)?);
            }
            if let Some(rest) = line.strip_prefix("batch ") {
                let kv = parse_kv(rest)?;
                let tenant = lookup(&kv, "tenant")?.to_string();
                if !valid_tenant_name(&tenant) {
                    return Err(format!("line {lineno}: bad tenant name {tenant:?}"));
                }
                let seq: u64 = lookup(&kv, "seq")?
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad seq"))?;
                let rows_field = lookup(&kv, "rows")?;
                let mut rows = Vec::new();
                if !rows_field.is_empty() {
                    for part in rows_field.split(',') {
                        rows.push(
                            part.parse()
                                .map_err(|_| format!("line {lineno}: bad row {part:?}"))?,
                        );
                    }
                }
                batches.push(RecordedBatch { tenant, seq, rows });
            } else if let Some(rest) = line.strip_prefix("output ") {
                let kv = parse_kv(rest)?;
                let tenant = lookup(&kv, "tenant")?.to_string();
                let digest = u64::from_str_radix(lookup(&kv, "digest")?, 16)
                    .map_err(|_| format!("line {lineno}: bad digest"))?;
                open = Some((tenant, digest, Vec::new()));
            } else if line == "end" {
                saw_end = true;
                break;
            } else {
                return Err(format!("line {lineno}: unrecognized record {line:?}"));
            }
        }
        if let Some(section) = open.take() {
            outputs.push(close_output(section)?);
        }
        if !saw_end {
            return Err("missing end sentinel (file truncated?)".to_string());
        }
        Ok(Session {
            geometry,
            t_rh,
            batches,
            outputs,
        })
    }

    /// Re-runs every tenant pipeline over the recorded batches and
    /// returns the regenerated session (same input, freshly computed
    /// outputs). Tenants that recorded batches but no output (a crashed
    /// shard) are skipped, matching the live daemon.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry is unknown, a pipeline cannot be
    /// built, or the recorded sequence numbers do not replay cleanly.
    pub fn replay(&self) -> Result<Session, String> {
        let geometry = geometry_by_name(&self.geometry)
            .ok_or_else(|| format!("unknown geometry {:?}", self.geometry))?;
        // Replay exactly the tenants the recording produced output for —
        // including tenants with zero accepted batches, and excluding a
        // crashed shard's leftovers. A session with no recorded outputs
        // at all is fresh input: compute outputs for every batch tenant.
        let tenants: Vec<String> = if self.outputs.is_empty() {
            let mut names: Vec<String> = self.batches.iter().map(|b| b.tenant.clone()).collect();
            names.sort();
            names.dedup();
            names
        } else {
            self.outputs.iter().map(|s| s.tenant.clone()).collect()
        };
        let mut outputs = Vec::new();
        for tenant in &tenants {
            let mut pipeline = TenantPipeline::new(tenant, geometry, self.t_rh)?;
            for batch in self.batches.iter().filter(|b| &b.tenant == tenant) {
                pipeline.apply_batch(batch.seq, &batch.rows).map_err(|r| {
                    format!("tenant {} seq {}: {}", batch.tenant, batch.seq, r.as_str())
                })?;
            }
            outputs.push(pipeline.finish());
        }
        let mut replayed = Session {
            geometry: self.geometry.clone(),
            t_rh: self.t_rh,
            batches: self.batches.clone(),
            outputs,
        };
        replayed.normalize();
        Ok(replayed)
    }
}

/// Parses `text` as a recorded session, replays it, and byte-compares
/// the regenerated rendering against the original text.
///
/// # Errors
///
/// Returns a parse error, a replay error, or — on a mismatch — the first
/// line where the replayed session diverges from the recording.
pub fn replay_check(text: &str) -> Result<(), String> {
    let session = Session::parse(text)?;
    let replayed = session.replay()?;
    let regenerated = replayed.to_text();
    if regenerated == text {
        return Ok(());
    }
    for (i, (a, b)) in text.lines().zip(regenerated.lines()).enumerate() {
        if a != b {
            return Err(format!(
                "replay diverges at line {}: recorded {a:?}, replayed {b:?}",
                i + 1
            ));
        }
    }
    Err(format!(
        "replay diverges in length: recorded {} bytes, replayed {} bytes",
        text.len(),
        regenerated.len()
    ))
}

fn close_output(
    (tenant, digest, canon): (String, u64, Vec<String>),
) -> Result<TenantSummary, String> {
    let summary_line = canon
        .first()
        .ok_or_else(|| format!("output {tenant}: empty body"))?
        .clone();
    let kv = parse_kv(&summary_line)?;
    if lookup(&kv, "tenant")? != tenant {
        return Err(format!(
            "output {tenant}: summary line names another tenant"
        ));
    }
    let (batches, rows, invalid_rows) = (
        parse_u64(&kv, "batches")?,
        parse_u64(&kv, "rows")?,
        parse_u64(&kv, "invalid")?,
    );
    drop(kv);
    let summary = TenantSummary {
        tenant: tenant.clone(),
        batches,
        rows,
        invalid_rows,
        incidents: canon[1..].to_vec(),
        overflow_windows: 0,
        summary_line,
    };
    if summary.digest() != digest {
        return Err(format!(
            "output {tenant}: digest mismatch (recorded {digest:016x}, computed {:016x}) — file edited or corrupted",
            summary.digest()
        ));
    }
    Ok(summary)
}

fn parse_kv(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut rest = line;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("malformed kv segment {rest:?}"))?;
        let key = &rest[..eq];
        let after = &rest[eq + 1..];
        // `rows=` and incident-bearing fields never contain spaces, so a
        // space always separates pairs.
        let (value, next) = match after.find(' ') {
            Some(sp) => (&after[..sp], &after[sp + 1..]),
            None => (after, ""),
        };
        out.push((key, value));
        rest = next;
    }
    Ok(out)
}

fn lookup<'a>(kv: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, String> {
    kv.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing {key}="))
}

fn parse_u64(kv: &[(&str, &str)], key: &str) -> Result<u64, String> {
    lookup(kv, key)?
        .parse()
        .map_err(|_| format!("bad {key}= value"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_forensics::attribution::pack_row;
    use hydra_types::RowAddr;

    fn sample_session() -> Session {
        let rows: Vec<u64> = (0..200)
            .map(|_| pack_row(RowAddr::new(0, 0, 1, 7)))
            .collect();
        let mut session = Session {
            geometry: "tiny".to_string(),
            t_rh: 64,
            batches: (1..=6)
                .map(|seq| RecordedBatch {
                    tenant: "t0".to_string(),
                    seq,
                    rows: rows.clone(),
                })
                .chain((1..=3).map(|seq| RecordedBatch {
                    tenant: "alpha".to_string(),
                    seq,
                    rows: rows[..50].to_vec(),
                }))
                .collect(),
            outputs: Vec::new(),
        };
        session.normalize();
        // Generate truthful outputs by replaying the input once.
        let mut replayed = session.replay().expect("replay of fresh input");
        replayed.normalize();
        replayed
    }

    #[test]
    fn text_round_trips_through_parse() {
        let session = sample_session();
        let text = session.to_text();
        let parsed = Session::parse(&text).expect("parse");
        assert_eq!(parsed, session);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn replay_check_accepts_a_faithful_recording() {
        let text = sample_session().to_text();
        replay_check(&text).expect("byte-identical replay");
    }

    #[test]
    fn tampered_output_is_rejected_by_digest() {
        let text = sample_session().to_text();
        let tampered = text.replace("incidents=", "incidents=9");
        assert!(Session::parse(&tampered).is_err());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let text = sample_session().to_text();
        let cut = &text[..text.len() - 5];
        let err = Session::parse(cut).expect_err("must reject truncation");
        assert!(err.contains("end sentinel") || err.contains("truncated"));
    }

    #[test]
    fn tampered_input_diverges_on_replay() {
        let session = sample_session();
        let text = session.to_text();
        // Drop one batch line: outputs no longer match the input.
        let victim = session
            .batches
            .last()
            .map(|b| format!("batch tenant={} seq={} ", b.tenant, b.seq))
            .expect("non-empty session");
        let tampered: String = text
            .lines()
            .filter(|l| !l.starts_with(&victim))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(replay_check(&tampered).is_err());
    }

    #[test]
    fn unknown_geometry_and_schema_are_rejected() {
        assert!(Session::parse("schema=other-v9\n").is_err());
        assert!(Session::parse("schema=hydra-serve-v1\ngeometry=mars t_rh=64\nend\n").is_err());
        assert!(geometry_by_name("isca22").is_some());
    }
}
