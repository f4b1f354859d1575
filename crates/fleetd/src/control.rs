//! The live control plane: validated hot-reload configuration and
//! journaled operator commands.
//!
//! Two halves, with deliberately different durability stories:
//!
//! * **[`FleetConfig`]** — a total, line-oriented `key = value` parser
//!   over every daemon *and* harness knob, with one shared validator
//!   ([`check_config`] plus the harness-side checks in
//!   [`FleetConfig::validate`]). The CLI flags of `repro` and the admin
//!   endpoint's `POST /reload` both route through it, so there is exactly
//!   one range-checked source of truth. A reload is **reject-and-keep-
//!   old**: validation (and the structural-change check in
//!   `Daemon::reload`) runs against the *candidate* config while the old
//!   generation stays live; only a fully valid candidate bumps the
//!   generation. Config is *not* journaled — the config file itself is
//!   the durable source, and the generation counter restarts at 1 on
//!   every process start.
//!
//! * **[`ControlCommand`]** — operator actions (`force-rollback`,
//!   `pin-threshold`, `drain-shard`, `undrain-shard`) that mutate durable
//!   daemon state. These are journaled as first-class WAL records (tag 2,
//!   next to batches and rollout transitions) *before* any in-memory
//!   effect, and replayed through the same apply function on recovery —
//!   so a crash at any byte of the command record, or between apply and
//!   acknowledgement, recovers to fully-applied or not-applied, never
//!   half. The root `tests/control.rs` kill sweep is the witness.

use crate::codec::{put_f64, put_u32, CodecError, Reader};
use crate::daemon::DaemonConfig;

/// A journaled operator command.
///
/// Commands are idempotent by construction (re-pinning the same value,
/// re-draining a drained shard, and rolling back an absent candidate all
/// converge), so an orchestrator that cannot tell whether a command
/// landed before a crash can safely re-issue it after recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlCommand {
    /// Abort the in-flight canary rollout; the incumbent thresholds
    /// stand, and the epoch is recorded as rolled back with reason
    /// `operator`.
    ForceRollback,
    /// Pin `host`'s alarm threshold to `t`, outranking both the
    /// incumbent and any promoted epoch until unpinned by a later pin.
    PinThreshold {
        /// Host whose threshold is pinned.
        host: u32,
        /// The pinned threshold value (must be finite).
        t: f64,
    },
    /// Stop admitting new batches to shard `shard`; already-queued work
    /// still drains. Sources see `Admit::Overflow` and retry later.
    DrainShard {
        /// Shard index to drain.
        shard: u32,
    },
    /// Resume admission on shard `shard`.
    UndrainShard {
        /// Shard index to undrain.
        shard: u32,
    },
}

impl ControlCommand {
    /// Stable label for metrics/events.
    pub fn name(&self) -> &'static str {
        match self {
            ControlCommand::ForceRollback => "force-rollback",
            ControlCommand::PinThreshold { .. } => "pin-threshold",
            ControlCommand::DrainShard { .. } => "drain-shard",
            ControlCommand::UndrainShard { .. } => "undrain-shard",
        }
    }

    /// Serialise into `out` (tag byte + body), the WAL record body form.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ControlCommand::ForceRollback => out.push(0),
            ControlCommand::PinThreshold { host, t } => {
                out.push(1);
                put_u32(out, *host);
                put_f64(out, *t);
            }
            ControlCommand::DrainShard { shard } => {
                out.push(2);
                put_u32(out, *shard);
            }
            ControlCommand::UndrainShard { shard } => {
                out.push(3);
                put_u32(out, *shard);
            }
        }
    }

    /// Deserialise from exactly `buf` (trailing bytes are an error).
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let cmd = match r.u8()? {
            0 => ControlCommand::ForceRollback,
            1 => ControlCommand::PinThreshold {
                host: r.u32()?,
                t: r.f64()?,
            },
            2 => ControlCommand::DrainShard { shard: r.u32()? },
            3 => ControlCommand::UndrainShard { shard: r.u32()? },
            _ => return Err(CodecError::BadDiscriminant),
        };
        r.finish()?;
        Ok(cmd)
    }

    /// Parse the operator text grammar (one command per line):
    ///
    /// ```text
    /// force-rollback
    /// pin-threshold <host> <threshold>
    /// drain-shard <shard>
    /// undrain-shard <shard>
    /// ```
    ///
    /// Total: any input yields `Ok` or a diagnostic `Err`, never a panic.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut parts = line.split_whitespace();
        let verb = parts.next().ok_or_else(|| "empty command".to_string())?;
        let cmd = match verb {
            "force-rollback" => ControlCommand::ForceRollback,
            "pin-threshold" => {
                let host = parse_arg::<u32>(parts.next(), "pin-threshold", "host")?;
                let t = parse_arg::<f64>(parts.next(), "pin-threshold", "threshold")?;
                if !t.is_finite() {
                    return Err("pin-threshold value must be finite".to_string());
                }
                ControlCommand::PinThreshold { host, t }
            }
            "drain-shard" => ControlCommand::DrainShard {
                shard: parse_arg::<u32>(parts.next(), "drain-shard", "shard")?,
            },
            "undrain-shard" => ControlCommand::UndrainShard {
                shard: parse_arg::<u32>(parts.next(), "undrain-shard", "shard")?,
            },
            other => return Err(format!("unknown command: {other}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing arguments after {verb}"));
        }
        Ok(cmd)
    }
}

fn parse_arg<T: core::str::FromStr>(
    raw: Option<&str>,
    verb: &str,
    what: &str,
) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{verb} needs a {what} argument"))?;
    raw.parse()
        .map_err(|_| format!("{verb}: bad {what} {raw:?}"))
}

/// Control-plane counters over one daemon lifetime (exported as the
/// `control_*` metric families).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ControlStats {
    /// Hot reloads accepted (each bumped the config generation).
    pub reloads_applied: u64,
    /// Hot reloads rejected with the old generation kept live.
    pub reloads_rejected: u64,
    /// `force-rollback` commands journaled and applied.
    pub force_rollbacks: u64,
    /// `pin-threshold` commands journaled and applied.
    pub pins: u64,
    /// `drain-shard` commands journaled and applied.
    pub drains: u64,
    /// `undrain-shard` commands journaled and applied.
    pub undrains: u64,
}

/// Validate a [`DaemonConfig`]: the single source of truth shared by
/// `Daemon::open`, `Daemon::reload`, the [`FleetConfig`] parser, and the
/// `repro` CLI flags. `Err` carries the first failing range check.
pub fn check_config(cfg: &DaemonConfig) -> Result<(), &'static str> {
    if cfg.n_shards == 0 {
        return Err("n_shards must be nonzero");
    }
    if cfg.n_windows == 0 {
        return Err("n_windows must be nonzero");
    }
    if !(cfg.threshold_q > 0.0 && cfg.threshold_q <= 1.0) {
        return Err("threshold_q must be in (0, 1]");
    }
    if let Some(eps) = cfg.sketch_eps {
        if !(eps > 0.0 && eps < 1.0) {
            return Err("sketch_eps must be in (0, 1)");
        }
    }
    if cfg.snapshot_every == 0 {
        return Err("snapshot_every must be nonzero");
    }
    if cfg.queue.quantum == 0 {
        return Err("queue.quantum must be nonzero");
    }
    if cfg.queue.high == 0 || cfg.queue.high > cfg.queue.capacity {
        return Err("queue.high must be in 1..=queue.capacity");
    }
    if cfg.queue.low >= cfg.queue.high {
        return Err("queue.low must be below queue.high");
    }
    if cfg.supervisor.quarantine_strikes == 0 {
        return Err("quarantine_strikes must be nonzero");
    }
    if cfg.supervisor.breaker_failures == 0 {
        return Err("breaker_failures must be nonzero");
    }
    if cfg.rollout.canary_shards == 0 {
        return Err("rollout.canary_shards must be nonzero");
    }
    let gate = &cfg.rollout.gate;
    if !(gate.max_fp_increase >= 0.0 && gate.max_alarm_drop >= 0.0) {
        return Err("rollout gate alarm-delta bounds must be nonnegative");
    }
    if !(gate.min_coverage > 0.0 && gate.min_coverage <= 1.0) {
        return Err("rollout.gate.min_coverage must be in (0, 1]");
    }
    if !(gate.max_shed_rate >= 0.0 && gate.max_shed_rate <= 1.0) {
        return Err("rollout.gate.max_shed_rate must be in [0, 1]");
    }
    Ok(())
}

/// The full fleet configuration: the daemon's tunables plus the harness/
/// delivery knobs the `repro` scenarios share, all behind one validator.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Daemon-side configuration (validated by [`check_config`]).
    pub daemon: DaemonConfig,
    /// At-least-once delivery: attempts per batch before giving up.
    pub delivery_attempts: u32,
    /// Delivery retry backoff base (virtual ticks).
    pub delivery_backoff: u64,
    /// Ingest token-bucket refill rate (events per tick per source).
    pub ingest_rate: u64,
    /// Ingest token-bucket burst capacity.
    pub ingest_burst: u64,
    /// Admin endpoint TCP port; `None` (the default) keeps the endpoint
    /// off. Port 0 is rejected — the OS would pick an arbitrary port and
    /// the operator could never know where the plane lives.
    pub admin_port: Option<u16>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            daemon: DaemonConfig::default(),
            delivery_attempts: 40,
            delivery_backoff: 1,
            ingest_rate: 16,
            ingest_burst: 64,
            admin_port: None,
        }
    }
}

impl FleetConfig {
    /// Set one `key` to a textual `value`, with the same key grammar the
    /// file parser uses. Total: unknown keys and malformed values are
    /// diagnostics, never panics. Range checks run in
    /// [`FleetConfig::validate`], not here, so cross-field rules see the
    /// whole candidate config.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: core::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("bad value for {key}: {value:?}"))
        }
        match key {
            "n_shards" => self.daemon.n_shards = num(key, value)?,
            "n_windows" => self.daemon.n_windows = num(key, value)?,
            "threshold_q" => self.daemon.threshold_q = num(key, value)?,
            "snapshot_every" => self.daemon.snapshot_every = num(key, value)?,
            "sketch_eps" => {
                self.daemon.sketch_eps = match value {
                    "none" => None,
                    v => Some(num(key, v)?),
                }
            }
            "queue.capacity" => self.daemon.queue.capacity = num(key, value)?,
            "queue.high" => self.daemon.queue.high = num(key, value)?,
            "queue.low" => self.daemon.queue.low = num(key, value)?,
            "queue.shed_after" => self.daemon.queue.shed_after = num(key, value)?,
            "queue.quantum" => self.daemon.queue.quantum = num(key, value)?,
            "supervisor.backoff_base" => self.daemon.supervisor.backoff_base = num(key, value)?,
            "supervisor.backoff_cap_exp" => {
                self.daemon.supervisor.backoff_cap_exp = num(key, value)?
            }
            "supervisor.quarantine_strikes" => {
                self.daemon.supervisor.quarantine_strikes = num(key, value)?
            }
            "supervisor.breaker_failures" => {
                self.daemon.supervisor.breaker_failures = num(key, value)?
            }
            "rollout.canary_shards" => self.daemon.rollout.canary_shards = num(key, value)?,
            "rollout.gate.max_fp_increase" => {
                self.daemon.rollout.gate.max_fp_increase = num(key, value)?
            }
            "rollout.gate.max_alarm_drop" => {
                self.daemon.rollout.gate.max_alarm_drop = num(key, value)?
            }
            "rollout.gate.min_coverage" => {
                self.daemon.rollout.gate.min_coverage = num(key, value)?
            }
            "rollout.gate.max_shed_rate" => {
                self.daemon.rollout.gate.max_shed_rate = num(key, value)?
            }
            "delivery_attempts" => self.delivery_attempts = num(key, value)?,
            "delivery_backoff" => self.delivery_backoff = num(key, value)?,
            "ingest_rate" => self.ingest_rate = num(key, value)?,
            "ingest_burst" => self.ingest_burst = num(key, value)?,
            "admin_port" => {
                self.admin_port = match value {
                    "none" => None,
                    v => Some(num(key, v)?),
                }
            }
            other => return Err(format!("unknown config key: {other}")),
        }
        Ok(())
    }

    /// Parse the line-oriented config format: `key = value` per line,
    /// `#` comments, blank lines ignored. Starts from the defaults, so a
    /// file only names what it changes. Duplicate and unknown keys are
    /// errors (a typo must not silently fall back to a default), and the
    /// whole candidate is validated before it is returned — a caller
    /// holding a live config can only ever swap in a fully valid one.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut seen: Vec<String> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", i + 1))?;
            let (key, value) = (key.trim(), value.trim());
            if key.is_empty() || value.is_empty() {
                return Err(format!("line {}: expected key = value", i + 1));
            }
            if seen.iter().any(|k| k == key) {
                return Err(format!("line {}: duplicate key {key}", i + 1));
            }
            cfg.set(key, value)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            seen.push(key.to_string());
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validate every field and cross-field rule: the daemon half through
    /// [`check_config`], then the harness knobs.
    pub fn validate(&self) -> Result<(), String> {
        check_config(&self.daemon).map_err(|e| e.to_string())?;
        if self.delivery_attempts == 0 {
            return Err("delivery_attempts must be nonzero".to_string());
        }
        if self.delivery_backoff == 0 {
            return Err("delivery_backoff must be nonzero".to_string());
        }
        if self.ingest_rate == 0 {
            return Err("ingest_rate must be nonzero".to_string());
        }
        if self.ingest_burst == 0 {
            return Err("ingest_burst must be nonzero".to_string());
        }
        if self.admin_port == Some(0) {
            return Err("admin_port must be nonzero (or none)".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_roundtrip_binary_and_text() {
        for (line, cmd) in [
            ("force-rollback", ControlCommand::ForceRollback),
            (
                "pin-threshold 7 12.5",
                ControlCommand::PinThreshold { host: 7, t: 12.5 },
            ),
            ("drain-shard 3", ControlCommand::DrainShard { shard: 3 }),
            ("undrain-shard 3", ControlCommand::UndrainShard { shard: 3 }),
        ] {
            assert_eq!(ControlCommand::parse(line).unwrap(), cmd);
            let mut buf = Vec::new();
            cmd.encode(&mut buf);
            assert_eq!(ControlCommand::decode(&buf).unwrap(), cmd);
        }
    }

    #[test]
    fn command_decode_is_total() {
        let mut buf = Vec::new();
        ControlCommand::PinThreshold { host: 1, t: 2.0 }.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(ControlCommand::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
        buf.push(0);
        assert_eq!(
            ControlCommand::decode(&buf),
            Err(CodecError::TrailingBytes)
        );
        assert!(ControlCommand::decode(&[9]).is_err(), "bad tag");
    }

    #[test]
    fn command_text_grammar_rejects_garbage() {
        for bad in [
            "",
            "  ",
            "explode",
            "pin-threshold",
            "pin-threshold 1",
            "pin-threshold x 2.0",
            "pin-threshold 1 nan",
            "pin-threshold 1 inf",
            "pin-threshold 1 2.0 extra",
            "drain-shard",
            "drain-shard -1",
            "force-rollback now",
        ] {
            assert!(ControlCommand::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn config_file_roundtrip_and_defaults() {
        let cfg = FleetConfig::parse(
            "# fleet config\n\
             n_shards = 8\n\
             snapshot_every = 32   # live-appliable\n\
             queue.capacity = 512\n\
             queue.high = 300\n\
             queue.low = 100\n\
             rollout.gate.min_coverage = 0.8\n\
             admin_port = 9900\n",
        )
        .unwrap();
        assert_eq!(cfg.daemon.n_shards, 8);
        assert_eq!(cfg.daemon.snapshot_every, 32);
        assert_eq!(cfg.daemon.queue.capacity, 512);
        assert_eq!(cfg.daemon.rollout.gate.min_coverage, 0.8);
        assert_eq!(cfg.admin_port, Some(9900));
        // Untouched keys keep their defaults.
        assert_eq!(cfg.daemon.n_windows, DaemonConfig::default().n_windows);
        assert_eq!(cfg.delivery_attempts, 40);
    }

    #[test]
    fn config_parser_rejects_malformed_input() {
        for (text, needle) in [
            ("n_shards", "expected key = value"),
            ("= 4", "expected key = value"),
            ("n_shards =", "expected key = value"),
            ("warp_factor = 9", "unknown config key"),
            ("n_shards = banana", "bad value"),
            ("n_shards = 4\nn_shards = 8", "duplicate key"),
            ("n_shards = 0", "n_shards must be nonzero"),
            ("threshold_q = 1.5", "threshold_q must be in (0, 1]"),
            ("queue.low = 9999", "queue.low must be below queue.high"),
            ("admin_port = 0", "admin_port must be nonzero"),
            ("delivery_attempts = 0", "delivery_attempts must be nonzero"),
            ("ingest_rate = 0", "ingest_rate must be nonzero"),
            ("sketch_eps = 2.0", "sketch_eps must be in (0, 1)"),
        ] {
            let err = FleetConfig::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err:?}");
        }
    }

    #[test]
    fn parser_is_total_over_hostile_text() {
        for hostile in [
            "\u{0}\u{0}\u{0}",
            "= = = =",
            "a=\u{7f}\u{1b}[31m",
            "n_shards = 99999999999999999999999999",
            "queue.capacity = -3",
            "####\n\n\n = \n",
            "admin_port = 65536",
        ] {
            let _ = FleetConfig::parse(hostile); // must not panic
        }
    }

    #[test]
    fn check_config_matches_daemon_validation() {
        assert!(check_config(&DaemonConfig::default()).is_ok());
        let mut bad = DaemonConfig::default();
        bad.queue.quantum = 0;
        assert_eq!(check_config(&bad), Err("queue.quantum must be nonzero"));
    }
}
